"""Command-line surface: formats, precedence, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import tempfile

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
from creutz import __version__
from creutz.cli import MAX_TIME_POINTS, main
from creutz.serialize import format_float, read_table


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
        assert run_cli("spectrum", "--set", "bogus=1") == 1

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
         ("dqpt", "sensitivity=nan"), ("dqpt", "sensitivity=inf")],
    )
    def test_detector_tolerance_must_be_positive_and_finite(self, tmp_path, capsys, command,
                                                            setting):
        # a nan or inf tol used to accept the irrational angle of j_v = 1.3
        # as rational, and a nan sensitivity used to find no cusps, both
        # with exit 0
        base = {"revival": ("n_rungs=20", "j_v=1.3", "t_max=20", "n_points=200"),
                "dqpt": ("n_rungs=300", "theta1=0.25", "theta2=-0.25")}[command]
        out = tmp_path / "out.csv"
        args = [arg for item in (*base, setting) for arg in ("--set", item)]
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

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "o.csv"
        assert run_cli("spectrum", "--set", "n_rungs=4", "--out", str(missing_dir)) == 3


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

    def test_scan_grid_and_alias(self, tmp_path):
        direct, alias = tmp_path / "scan.csv", tmp_path / "alias.csv"
        args = ["--set", "n_rungs=32", "--set", "theta1=0.25", "--set", "n_theta2=21"]
        assert run_cli("scan", *args, "--out", str(direct)) == 0
        assert run_cli("work", "--scan", *args, "--out", str(alias)) == 0
        assert direct.read_bytes() == alias.read_bytes()
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
