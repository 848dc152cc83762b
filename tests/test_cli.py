"""Command-line surface: formats, precedence, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import string
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creutz import (
    LadderParams,
    LESeries,
    QuenchSpec,
    allowed_modes,
    detect_revivals,
    loschmidt_echo,
    mode_data,
)
from creutz import __version__, cli, quench, thermo
from creutz.cli import MAX_TABLE_ROWS, MAX_TIME_POINTS, main
from tables import format_float, read_table
from test_quench import record_splits


def run_cli(*args):
    return main(list(args))


class TestSpectrum:
    def test_csv_roundtrip(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run_cli("spectrum", "--set", "n_rungs=12", "--set", "theta=0.3", "--out", str(out)) == 0
        meta, columns, rows = read_table(str(out))
        assert meta["command"] == "spectrum"
        assert meta["n_rungs"] == 12
        assert columns[0] == "k"
        np.testing.assert_allclose(rows[:, 0], allowed_modes(12), rtol=1e-14)
        params = LadderParams(1.0, 1.0, 1.0, 0.3 * math.pi, 12)
        expected_gap = [mode_data(params, float(k)).gap for k in rows[:, 0]]
        np.testing.assert_allclose(rows[:, -1], expected_gap, rtol=1e-12, atol=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("spectrum", "--set", "n_rungs=9", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_are_array_mode_data(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run_cli("spectrum", "--set", "n_rungs=9", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        header = lines.index("k,eps_q,eps_p,eps_qp,gamma,e_alpha,e_beta,gap")
        m = mode_data(LadderParams(1.0, 1.0, 1.0, 0.0, 9), allowed_modes(9))
        table = np.column_stack([m.k, m.eps_q, m.eps_p, m.eps_qp, m.gamma,
                                 m.e_alpha, m.e_beta, m.gap])
        expected = [",".join(format_float(v) for v in row) for row in table]
        assert lines[header + 1:] == expected

    def test_blocks_of_modes_give_one_call_bits(self, tmp_path):
        # mode_data is elementwise: a table built a block of modes at a time
        # holds the bits of one call over every mode
        n = 2 * cli._SPECTRUM_BLOCK_MODES + 3
        out = tmp_path / "spectrum.json"
        assert run_cli("spectrum", "--set", f"n_rungs={n}", "--set", "theta=0.3",
                       "--out", str(out), "--format", "json") == 0
        m = mode_data(LadderParams(1.0, 1.0, 1.0, 0.3 * math.pi, n), allowed_modes(n))
        table = np.column_stack([getattr(m, name) for name in cli._SPECTRUM_COLUMNS])
        rows = np.array(json.loads(out.read_text())["rows"])
        assert rows.tobytes() == table.tobytes()

    def test_memory_is_the_rows_and_a_block(self, tmp_path):
        # the table's float rows plus one block of modes and one of text; a
        # run holding all mode_data columns and the whole text peaks at 59.7 MiB
        n = 200_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run_cli("spectrum", "--set", f"n_rungs={n}",
                           "--out", str(tmp_path / "s.csv")) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n * len(cli._SPECTRUM_COLUMNS) * 8 + 4 * 2**20

    def test_headers_carry_package_version(self, tmp_path):
        csv_path, json_path = tmp_path / "o.csv", tmp_path / "o.json"
        assert run_cli("spectrum", "--set", "n_rungs=4", "--out", str(csv_path)) == 0
        assert run_cli("spectrum", "--set", "n_rungs=4", "--out", str(json_path),
                       "--format", "json") == 0
        assert csv_path.read_text().splitlines()[0] == f"# creutz v{__version__}"
        assert json.loads(json_path.read_text())["version"] == __version__


class TestLe:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "le.csv"
        code = run_cli(
            "le", "--set", "n_rungs=40", "--set", "theta1=0.25", "--set", "theta2=-0.25",
            "--set", "t_max=5", "--set", "n_points=11", "--out", str(out),
        )
        assert code == 0
        meta, columns, rows = read_table(str(out))
        assert columns == ["t", "le", "rate"]
        assert meta["theta1_over_pi"] == 0.25
        spec = QuenchSpec(
            params=LadderParams(1.0, 1.0, 1.0, 0.0, 40),
            theta_pre=0.25 * math.pi,
            theta_post=-0.25 * math.pi,
        )
        series = loschmidt_echo(spec, np.linspace(0.0, 5.0, 11))
        np.testing.assert_allclose(rows[:, 1], series.le, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(rows[:, 2], series.rate, rtol=1e-14, atol=1e-15)

    def test_json_mirrors_csv(self, tmp_path):
        csv_path, json_path = tmp_path / "o.csv", tmp_path / "o.json"
        common = ["le", "--set", "n_rungs=20", "--set", "t_max=3", "--set", "n_points=7"]
        assert run_cli(*common, "--out", str(csv_path)) == 0
        assert run_cli(*common, "--out", str(json_path), "--format", "json") == 0
        _, csv_cols, csv_rows = read_table(str(csv_path))
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == csv_cols
        np.testing.assert_allclose(np.asarray(payload["rows"]), csv_rows, rtol=1e-14)

    def test_roundtrip_precision(self, tmp_path):
        out = tmp_path / "le.csv"
        run_cli("le", "--set", "n_rungs=30", "--set", "t_max=2", "--set", "n_points=9",
                "--out", str(out))
        _, _, rows = read_table(str(out))
        again = tmp_path / "le2.csv"
        run_cli("le", "--set", "n_rungs=30", "--set", "t_max=2", "--set", "n_points=9",
                "--out", str(again))
        _, _, rows2 = read_table(str(again))
        np.testing.assert_allclose(rows, rows2, rtol=0, atol=0)


class TestConfigHandling:
    def test_file_then_set_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_rungs = 12\ntheta = 0.1  # comment\n")
        out = tmp_path / "o.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--set", "n_rungs=8",
                       "--out", str(out)) == 0
        meta, _, rows = read_table(str(out))
        assert meta["n_rungs"] == 8
        assert rows.shape[0] == 8
        assert meta["theta_over_pi"] == 0.1

    def test_j_shorthand(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli("spectrum", "--set", "j=1.5", "--set", "n_rungs=6",
                       "--out", str(out)) == 0
        meta, _, _ = read_table(str(out))
        assert meta["j_h"] == 1.5
        assert meta["j_d"] == 1.5

    def test_angles_are_in_pi_units(self, tmp_path):
        out = tmp_path / "o.csv"
        run_cli("spectrum", "--set", "n_rungs=6", "--set", "theta=0.5", "--out", str(out))
        _, _, rows = read_table(str(out))
        params = LadderParams(1.0, 1.0, 1.0, 0.5 * math.pi, 6)
        np.testing.assert_allclose(
            rows[0, -1], mode_data(params, 0.0).gap, rtol=1e-12
        )

    def test_unknown_key_is_config_error(self, tmp_path):
        # the output target is set by the --out and --format flags only
        out = tmp_path / "o.csv"
        for setting in ("bogus=1", f"out={out}", "format=json"):
            assert run_cli("spectrum", "--set", setting) == 1
        assert not out.exists()

    def test_unparsable_value_is_config_error(self):
        assert run_cli("spectrum", "--set", "n_rungs=many") == 1

    def test_bad_config_line_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_rungs = 12\nnot a pair\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 1
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_domain_error_exit_code(self):
        # vertical hopping too strong for a gap closing
        assert run_cli("revival", "--set", "j_v=2.5") == 2

    def test_q_max_too_fine_for_tol_is_domain_error(self, tmp_path, capsys):
        # at q_max^2 tol = 10 any angle counts as rational: j_v = 0.37 gave base 20117
        out = tmp_path / "revival.csv"
        assert run_cli("revival", "--set", "j_v=0.37", "--set", "q_max=100000",
                       "--set", "n_points=2000", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "100000" in err and "1e-09" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["j_v=nan", "j=inf", "theta1=inf", "theta2=-inf"])
    def test_non_finite_input_is_domain_error(self, setting):
        assert run_cli("le", "--set", setting, "--set", "n_rungs=4", "--set", "n_points=3") == 2

    @pytest.mark.parametrize("command", ["le", "spectrum"])
    @pytest.mark.parametrize("setting", ["j=1e200", "j_v=1e200"])
    def test_overflowing_hopping_is_domain_error(self, tmp_path, capsys, command, setting):
        # finite but huge hoppings used to write all-NaN rows with exit 0
        out = tmp_path / "out.csv"
        code = run_cli(command, "--set", setting, "--set", "n_rungs=4", "--set", "t_max=1",
                       "--set", "n_points=3", "--out", str(out))
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_phase_is_domain_error(self, tmp_path):
        out = tmp_path / "le.csv"
        assert run_cli("le", "--set", "t_max=1e308", "--set", "n_points=3", "--set", "n_rungs=4",
                       "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, setting",
        [("revival", "tol=nan"), ("revival", "tol=inf"), ("revival", "tol=0"),
         ("dqpt", "sensitivity=nan"), ("dqpt", "sensitivity=inf"),
         ("revival", "margin=-1"), ("revival", "margin=nan"), ("revival", "margin=inf"),
         ("revival", "margin=0")],
    )
    def test_detector_tolerance_must_be_positive_and_finite(self, tmp_path, capsys, command,
                                                            setting):
        # a nan or inf tol used to accept the irrational angle of j_v = 1.3
        # as rational, a nan sensitivity used to find no cusps, and a
        # negative margin used to report a revival, all with exit 0; the
        # margin cases use the rational default j_v so that the prediction
        # succeeds and the detector sees the margin
        base = {"tol": ("n_rungs=20", "j_v=1.3", "t_max=20", "n_points=200"),
                "margin": ("n_rungs=20", "t_max=40", "n_points=2001"),
                "sensitivity": ("n_rungs=300", "theta1=0.25", "theta2=-0.25")}[
                    setting.partition("=")[0]]
        out = tmp_path / "out.csv"
        args = [arg for item in (*base, setting) for arg in ("--set", item)]
        assert run_cli(command, *args, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "domain error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, settings",
        [("scan", ["theta2_max=inf"]), ("scan", ["theta2_min=nan"]),
         ("scan", ["theta2_min=-1e308", "theta2_max=1e308"]),
         ("scan", ["theta2_min=1e308", "theta2_max=1e308"]),
         ("work", ["theta2=1e308"]), ("work", ["theta2=-inf"])],
    )
    def test_post_quench_angles_are_checked_before_numpy(self, tmp_path, capsys, command,
                                                         settings):
        # np.linspace and theta2 * pi used to warn of an overflow or an
        # invalid value before the angle check; pytest turns those
        # warnings into errors
        out = tmp_path / "out.csv"
        args = [arg for item in ("n_rungs=8", "n_theta2=3", *settings) for arg in ("--set", item)]
        assert run_cli(command, *args, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "domain error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("t_max", ["inf", "nan", "0"])
    def test_time_grid_end_must_be_positive_and_finite(self, t_max):
        assert run_cli("le", "--set", f"t_max={t_max}", "--set", "n_rungs=4") == 1

    @pytest.mark.parametrize(
        "setting", ["t_max=1e308", "t_max=1e300", f"n_points={MAX_TIME_POINTS + 1}"]
    )
    def test_oversized_time_grid_is_config_error(self, monkeypatch, capsys, tmp_path, setting):
        # t_max=1e308 overflowed round(), 1e300 asked numpy for 5e301 points;
        # the grid must be refused before it is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("time grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "le.csv"
        assert run_cli("le", "--set", setting, "--set", "n_rungs=4", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, setting",
        [("spectrum", "n_rungs=1000000000"), ("le", f"n_rungs={MAX_TABLE_ROWS + 1}"),
         ("work", "n_rungs=100000000"), ("scan", "n_theta2=1000000000"),
         ("scan", f"n_theta2={MAX_TABLE_ROWS + 1}")],
    )
    def test_oversized_table_is_config_error(self, monkeypatch, capsys, tmp_path, command,
                                             setting):
        # these ended in a numpy _ArrayMemoryError traceback; the size must
        # be refused before any mode or theta2 table is allocated
        def refuse(*args, **kwargs):
            raise AssertionError("table was allocated")

        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "out.csv"
        assert run_cli(command, "--set", setting, "--set", "n_points=3", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "o.csv"
        for fmt in ("csv", "json"):
            assert run_cli("spectrum", "--set", "n_rungs=4", "--out", str(missing_dir),
                           "--format", fmt) == 3
            err = capsys.readouterr().err
            assert "I/O error" in err and "Traceback" not in err
        assert not missing_dir.parent.exists()

    @pytest.mark.parametrize(
        "code, argv",
        [(1, ["spectrum", "--set", "n_rungs=1"]), (1, ["le", "--set", "n_points=1"]),
         (1, ["scan", "--set", "bogus=1"]),
         (2, ["scan", "--set", "theta2_min=1e308"]), (2, ["work", "--set", "j_v=-1"]),
         (2, ["dqpt", "--set", "sensitivity=0"]),
         # refused after the echo series is computed, before anything is written
         (2, ["revival", "--set", "n_rungs=100", "--set", "margin=10",
              "--set", "n_points=200"])],
    )
    def test_failed_run_leaves_no_output_file(self, tmp_path, capsys, code, argv):
        for fmt in ("csv", "json"):
            out = tmp_path / f"out.{fmt}"
            assert run_cli(*argv, "--out", str(out), "--format", fmt) == code
            assert "Traceback" not in capsys.readouterr().err
            assert not out.exists()


class TestLeRevivalRoundTrip:
    def test_echo_series_supports_revival_detection(self, tmp_path):
        # the exported series itself carries the first revival
        out = tmp_path / "le.csv"
        t_max = 2 * 300 / (2 * math.sqrt(3))
        n_points = int(round(t_max / 0.02)) + 1
        code = run_cli(
            "le", "--set", "n_rungs=100", "--set", "theta1=0.0016", "--set", "theta2=0",
            "--set", f"t_max={t_max}", "--set", f"n_points={n_points}", "--out", str(out),
        )
        assert code == 0
        _, _, rows = read_table(str(out))
        series = LESeries(times=rows[:, 0], le=rows[:, 1], la=None, rate=rows[:, 2],
                          n_rungs=100)
        detection = detect_revivals(series)
        assert detection.first_revival == pytest.approx(86.58, rel=0.01)


class TestRevivalCommand:
    def test_reference_ladder(self, tmp_path):
        out = tmp_path / "revival.csv"
        assert run_cli("revival", "--set", "n_rungs=100", "--out", str(out)) == 0
        meta, columns, rows = read_table(str(out))
        assert columns == ["revival_index", "t_revival", "le_at_revival"]
        assert meta["predicted_period"] == pytest.approx(300 / (2 * math.sqrt(3)), rel=1e-12)
        assert meta["first_revival"] == pytest.approx(86.58, rel=0.01)
        assert meta["commensurate"] is False
        assert meta["effective_n"] == 300
        assert rows[0, 1] == pytest.approx(meta["first_revival"], rel=1e-12)

    @pytest.mark.parametrize("theta1", ["0", "1"])
    def test_quench_that_excites_nothing_has_no_revival(self, tmp_path, capsys, theta1):
        # 0 -> 0 is no quench and pi -> 0 a gauge change: the echo is flat,
        # and the derived threshold, the mean itself, reported a "revival"
        out = tmp_path / "revival.csv"
        assert run_cli("revival", "--set", "n_rungs=30", "--set", f"theta1={theta1}",
                       "--set", "theta2=0", "--out", str(out)) == 2
        assert "does not rise above mean_level" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theta1, revives", [("1e-9", False), ("1e-8", True), ("1e-7", True),
                                                 ("1e-5", True)])
    def test_echo_within_rounding_has_no_revival(self, tmp_path, capsys, theta1, revives):
        # peak - mean is about 8e-16 at theta1 = 1e-9, rounding, below the
        # floor 4 eps N peak = 2.7e-14; from 1e-8 on (6.7e-14, x100 per x10
        # in theta1) the echo revives at 8.47
        out = tmp_path / "revival.csv"
        code = run_cli("revival", "--set", "n_rungs=30", "--set", f"theta1={theta1}",
                       "--set", "theta2=0", "--out", str(out))
        if revives:
            assert code == 0
            assert read_table(str(out))[0]["first_revival"] == pytest.approx(8.47, abs=0.01)
        else:
            assert code == 2
            assert "rounding floor" in capsys.readouterr().err
            assert not out.exists()


class TestDqptCommand:
    def test_across_quench_cusps(self, tmp_path):
        out = tmp_path / "dqpt.csv"
        code = run_cli(
            "dqpt", "--set", "n_rungs=2000", "--set", "theta1=0.25", "--set", "theta2=-0.25",
            "--set", "t_max=3.5", "--set", "n_points=3501", "--out", str(out),
        )
        assert code == 0
        meta, columns, rows = read_table(str(out))
        assert columns == ["cusp_index", "t_cusp", "t_predicted_nearest", "abs_diff"]
        assert meta["possible"] is True
        assert meta["n_critical_modes"] == 2
        assert rows.shape[0] >= 2
        assert np.all(rows[:, 3] <= 2e-3 + 1e-12)

    def test_same_phase_quench_yields_empty_table(self, tmp_path):
        out = tmp_path / "dqpt.csv"
        code = run_cli(
            "dqpt", "--set", "n_rungs=200", "--set", "theta1=0.1", "--set", "theta2=0.2",
            "--set", "t_max=2", "--set", "n_points=2001", "--out", str(out),
        )
        assert code == 0
        meta, columns, rows = read_table(str(out))
        assert meta["possible"] is False
        assert meta["n_critical_modes"] == 0
        assert rows.shape[0] == 0

    def test_gate_metadata_for_critical_target(self, tmp_path):
        out = tmp_path / "dqpt.csv"
        run_cli("dqpt", "--set", "n_rungs=300", "--set", "theta1=0.25", "--set", "theta2=0",
                "--set", "t_max=2", "--set", "n_points=201", "--out", str(out))
        meta, _, _ = read_table(str(out))
        assert meta["zero_mode_gate"] is True

    @pytest.mark.parametrize("theta2", ["2", "-1"])
    def test_gate_metadata_for_equivalent_critical_target(self, tmp_path, theta2):
        # 2 pi is the flux 0 and -pi the flux pi: both are critical targets
        out = tmp_path / "dqpt.csv"
        assert run_cli("dqpt", "--set", "n_rungs=300", "--set", "theta1=0.25",
                       "--set", f"theta2={theta2}", "--set", "t_max=2",
                       "--set", "n_points=201", "--out", str(out)) == 0
        meta, _, _ = read_table(str(out))
        assert meta["zero_mode_gate"] is True

    def test_near_critical_targets_agree(self, tmp_path):
        # a target within 1e-12 of the flux 0 is critical for every part of
        # the run: the same tangent mode and gate as the exact flux 0
        keys = ("possible", "n_critical_modes", "k_star", "t_star", "zero_mode_gate")
        metas = []
        for theta2 in ("0", "1e-13", "-1e-13"):
            out = tmp_path / f"dqpt{theta2}.csv"
            assert run_cli("dqpt", "--set", "n_rungs=99", "--set", "theta1=0.25",
                           "--set", f"theta2={theta2}", "--set", "t_max=2",
                           "--set", "n_points=201", "--out", str(out)) == 0
            meta, _, _ = read_table(str(out))
            metas.append({key: meta[key] for key in keys})
        assert metas[0] == metas[1] == metas[2]
        assert metas[0]["zero_mode_gate"] is True and metas[0]["n_critical_modes"] == 1

    def test_cusp_without_finite_prediction_compares_with_inf(self, tmp_path):
        # a quench to the critical flux predicts no finite cusp time; the
        # detected cusp is compared with inf, never with NaN
        out = tmp_path / "dqpt.csv"
        assert run_cli("dqpt", "--set", "n_rungs=300", "--set", "theta1=0.25",
                       "--set", "theta2=0", "--out", str(out)) == 0
        meta, _, rows = read_table(str(out))
        assert meta["t_star"] == math.inf and meta["predicted_times"] == ""
        assert rows.shape[0] >= 1
        assert not np.any(np.isnan(rows))
        assert np.all(np.isinf(rows[:, 2:]))

    def test_near_tangent_quench_has_both_critical_modes(self, tmp_path):
        # 1 + r = 2e-6: two distinct roots, k* = 3.13762 and 3.1415901
        out = tmp_path / "dqpt.csv"
        assert run_cli("dqpt", "--set", "j=1", "--set", "j_v=1.99999999",
                       "--set", "theta1=1e-5", "--set", "theta2=-0.04",
                       "--set", "n_points=64", "--out", str(out)) == 0
        meta, _, _ = read_table(str(out))
        assert meta["n_critical_modes"] == 2
        k_star = [float(k) for k in meta["k_star"].split(";")]
        np.testing.assert_allclose(k_star, [3.13762, 3.1415901], rtol=1e-6)

    def test_gate_reads_q_max_and_tol(self, tmp_path):
        # q_max = 2 cannot resolve the angle 1/3, for which revival exits 2
        out = tmp_path / "dqpt.csv"
        args = ["--set", "theta2=0", "--set", "q_max=2"]
        assert run_cli("dqpt", *args, "--set", "t_max=2", "--set", "n_points=201",
                       "--out", str(out)) == 0
        meta, _, _ = read_table(str(out))
        assert meta["zero_mode_gate"] is False
        assert meta["q_max"] == 2 and meta["tol"] == 1e-9
        assert run_cli("revival", *args, "--out", str(tmp_path / "revival.csv")) == 2


@pytest.mark.parametrize("argv", [
    ["dqpt", "--set", "n_rungs=2000", "--set", "theta1=0.25", "--set", "theta2=-0.25",
     "--set", "t_max=3.5", "--set", "n_points=3501"],
    ["revival", "--set", "n_rungs=100"],
])
def test_output_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, argv):
    outputs, splits = [], record_splits(monkeypatch)
    for workers in (1, 2):
        monkeypatch.setattr(quench, "_worker_count", lambda: workers)
        splits.clear()
        out = tmp_path / f"{workers}.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert splits and set(splits) == {workers}  # N = 100 is split too
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class TestWorkCommands:
    def test_single_quench_row(self, tmp_path):
        out = tmp_path / "work.csv"
        assert run_cli("work", "--set", "n_rungs=50", "--set", "theta1=0.25",
                       "--set", "theta2=-0.25", "--out", str(out)) == 0
        meta, columns, rows = read_table(str(out))
        assert rows.shape == (1, len(columns))
        avg, delta_f, w_irr = rows[0, 2:5]
        assert w_irr == pytest.approx(avg - delta_f, abs=1e-10)
        assert w_irr >= 0.0

    def test_scan_table_comes_from_one_array(self, tmp_path, monkeypatch):
        # one WorkStats object per angle took 1.4 s of a 10^6-angle scan
        def refuse(*args, **kwargs):
            raise AssertionError("a WorkStats object was built")

        monkeypatch.setattr(thermo, "WorkStats", refuse)
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--set", "n_rungs=10", "--set", "n_theta2=5",
                       "--out", str(out)) == 0
        _, _, rows = read_table(str(out))
        sums = thermo.scan_theta2(LadderParams(1.0, 1.0, 1.0, 0.0, 10), 0.0016 * math.pi,
                                  np.linspace(-1.0, 1.0, 5) * math.pi)
        np.testing.assert_allclose(rows[:, 2:5], sums.T, rtol=1e-14, atol=1e-300)

    def test_scan_grid_and_alias(self, tmp_path):
        direct, alias = tmp_path / "scan.csv", tmp_path / "alias.csv"
        args = ["--set", "n_rungs=32", "--set", "theta1=0.25", "--set", "n_theta2=21"]
        assert run_cli("scan", *args, "--out", str(direct)) == 0
        # the work --scan alias is gone: the scan command is the one spelling
        assert run_cli("work", "--scan", *args, "--out", str(alias)) == 1
        assert not alias.exists()
        meta, columns, rows = read_table(str(direct))
        assert rows.shape[0] == 21
        assert columns[1] == "theta2_over_pi"
        np.testing.assert_allclose(rows[:, 1], np.linspace(-1, 1, 21), atol=1e-12)
        # free-energy difference symmetric about the critical flux
        np.testing.assert_allclose(rows[:, 3], rows[::-1, 3], atol=1e-10)


finite_or_not = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@given(j=finite_or_not, j_v=finite_or_not, theta1=finite_or_not, theta2=finite_or_not)
@settings(max_examples=80, deadline=None)
def test_le_inputs_end_in_exit_code_not_traceback(j, j_v, theta1, theta2):
    # any input either succeeds with NaN-free data or ends in a typed
    # error with its exit code
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "le.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(
                "le", "--set", f"j={j!r}", "--set", f"j_v={j_v!r}",
                "--set", f"theta1={theta1!r}", "--set", f"theta2={theta2!r}",
                "--set", "n_rungs=6", "--set", "t_max=3", "--set", "n_points=7",
                "--out", out,
            )
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            _, _, rows = read_table(out)
            assert rows.shape == (7, 3)
            assert not np.any(np.isnan(rows))


# Integers are drawn either small or beyond every size cap, and n_points is
# pinned small unless it is drawn itself, so that a valid draw never starts a
# large grid or mode table; every other size is pinned small too.
fuzz_value = st.one_of(
    st.sampled_from(["1e308", "-1e308", "5e-324", "-0.0", "nan", "inf", "-inf"]),
    st.integers(-3, 64).map(str),
    st.integers(MAX_TIME_POINTS + 1, 10**18).map(str),
    st.text(string.ascii_letters + string.digits + "+-._ ", max_size=6),
)


@given(
    command=st.sampled_from(sorted(set(cli._RUNNERS))),
    settings_=st.dictionaries(st.sampled_from(sorted(["j", *cli._KEYS])), fuzz_value,
                              min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_every_command_and_key_ends_in_exit_code_not_traceback(command, settings_):
    base = {"n_rungs": "6", "n_points": "64", "n_theta2": "3"}
    items = [f"{key}={value}" for key, value in {**base, **settings_}.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(command, *(arg for item in items for arg in ("--set", item)),
                           "--out", out)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            _, _, rows = read_table(out)
            assert not np.any(np.isnan(rows))
