"""Command-line surface: formats, precedence, determinism, exit codes."""

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from creutz import __version__, cli, dqpt, model, quench, thermo
from creutz.cli import MAX_TABLE_ROWS, MAX_TIME_POINTS, main
from tables import format_float, read_table
from test_quench import SRC, record_splits


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
        # the k grid plus one block of modes and one piece of text, as CSV or
        # JSON: no table of all rows; filling one first peaks at 15.1 MiB,
        # holding all mode_data columns and the whole CSV text at 59.7 MiB,
        # and the whole JSON text at 252.9 MiB
        n = 200_000
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert run_cli("spectrum", "--set", f"n_rungs={n}", "--format", fmt,
                               "--out", str(tmp_path / f"s.{fmt}")) == 0
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < n * 8 + 4 * 2**20, fmt

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_to_the_null_device(self, fmt):
        # a target that is not a regular file is written, not truncated
        assert run_cli("spectrum", "--set", "n_rungs=9", "--format", fmt, "--out", os.devnull) == 0

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

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # as Notepad and Windows PowerShell save UTF-8; the mark read as part
        # of the first key, an unknown key '\ufeffn_rungs'
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn_rungs = 6\ntheta = 0.25\n")
        out = tmp_path / "o.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--out", str(out)) == 0
        meta, _, rows = read_table(str(out))
        assert meta["n_rungs"] == 6 and meta["theta_over_pi"] == 0.25
        assert rows.shape[0] == 6

    @pytest.mark.parametrize("body, message", [
        ("n_rungs 12", "expected {expected}"),
        ("bogus = 1", "unknown key 'bogus'"),
        ("n_rungs = many", "cannot parse value 'many' for key 'n_rungs'"),
    ], ids=["missing-equals", "unknown-key", "unparsable-value"])
    @pytest.mark.parametrize("source", ["config", "set"])
    def test_malformed_assignment_names_its_position(self, tmp_path, capsys, source, body, message):
        if source == "config":
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"theta = 0.1\n{body}  # second line\n")
            argv, where, expected = ["--config", str(cfg)], f"{cfg}:2", f"'key = value', got {body!r}"
        else:
            argv, where, expected = ["--set", body], f"--set {body!r}", "key=value"
        assert run_cli("spectrum", *argv, "--out", str(tmp_path / "o.csv")) == 1
        err = capsys.readouterr().err
        assert err == f"creutz: configuration error: {where}: {message.format(expected=expected)}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_config_file_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        # the decode error escaped main as a traceback
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe")
        assert run_cli("spectrum", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "binary.cfg" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("settings", [["n_points=10", "t_max=1e9"], ["n_points=10", "t_max=1e300"],
                                          ["j=1e150"]])
    def test_too_many_predicted_cusp_times_is_config_error(self, monkeypatch, capsys, tmp_path,
                                                           settings):
        # N 20, 0.25 -> -0.25: t_max 1e6 listed 1.9e6 times (170 MB RSS, a
        # 17 MB file), and the list grows linearly in t_max / t*; the count
        # must be refused before the list is built or the kernel runs
        def refuse(*args, **kwargs):
            raise AssertionError("cusp times were listed or the echo was run")

        monkeypatch.setattr(np, "arange", refuse)
        monkeypatch.setattr(quench, "loschmidt_echo", refuse)
        out = tmp_path / "dqpt.csv"
        argv = ["dqpt", "--set", "n_rungs=20", "--set", "theta1=0.25", "--set", "theta2=-0.25"]
        for setting in settings:
            argv += ["--set", setting]
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "predicted cusp times" in err and "Traceback" not in err
        assert not out.exists()

    def test_predicted_cusp_times_up_to_the_limit_write_the_same_bytes(self, monkeypatch, tmp_path):
        # a limit equal to the count of the closed form leaves the output as
        # it is, and one below it refuses
        argv = ["dqpt", "--set", "n_rungs=20", "--set", "theta1=0.25", "--set", "theta2=-0.25",
                "--set", "n_points=10", "--set", "t_max=1000"]
        reference = tmp_path / "reference.csv"
        assert run_cli(*argv, "--out", str(reference)) == 0
        meta, _, _ = read_table(str(reference))
        count = sum(math.floor(1000.0 / float(t) + 0.5) + 1 for t in meta["t_star"].split(";"))
        assert len(meta["predicted_times"].split(";")) <= count
        monkeypatch.setattr(cli, "MAX_TABLE_ROWS", count)
        out = tmp_path / "at_limit.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == reference.read_bytes()
        monkeypatch.setattr(cli, "MAX_TABLE_ROWS", count - 1)
        assert run_cli(*argv, "--out", str(tmp_path / "over.csv")) == 1

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


def test_documented_config_table_names_exactly_the_keys():
    # the first column of the table in docs/formats.md, one or more `key`s a row
    with open(os.path.join(SRC, os.pardir, "docs", "formats.md"), encoding="utf-8") as docs:
        section = docs.read().split("## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    documented = [name for cell in rows for name in re.findall(r"`([^`]+)`", cell)]
    assert sorted(documented) == sorted([*cli._KEYS, "j"])


def test_parser_table_and_docs_name_the_same_commands():
    # the ``###`` sections under "Per-command schemas" in docs/formats.md
    with open(os.path.join(SRC, os.pardir, "docs", "formats.md"), encoding="utf-8") as docs:
        section = docs.read().split("## Per-command schemas\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^### (\S+)$", section, flags=re.MULTILINE)
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._COMMANDS) == documented == ["spectrum", "le", "revival", "dqpt",
                                                                      "work", "scan"]


COMMON_KEYS = ["command", "j_h", "j_v", "j_d", "n_rungs"]
TIME_GRID = ["t_max", "n_points"]
REVIVAL_INPUTS = ["theta1_over_pi", "theta2_over_pi", "q_max", "tol", "window", "peak_fraction"]
REVIVAL_RESULTS = ["base", "effective_n", "predicted_period", "commensurate", "first_revival", "mean_level",
                   "threshold", "relaxation_time", *TIME_GRID]
DQPT_RESULTS = ["possible", "n_critical_modes", "k_star", "t_star", "predicted_times", "sensitivity", *TIME_GRID]


@pytest.mark.parametrize("command, settings, inputs, results", [
    ("spectrum", [], ["theta_over_pi"], []),
    ("le", [], ["theta1_over_pi", "theta2_over_pi"], TIME_GRID),
    ("revival", [], REVIVAL_INPUTS, REVIVAL_RESULTS),
    ("revival", ["margin=0.001"], [*REVIVAL_INPUTS, "margin"], REVIVAL_RESULTS),
    ("dqpt", ["theta1=0.25", "theta2=-0.25"], ["theta1_over_pi", "theta2_over_pi"], DQPT_RESULTS),
    ("dqpt", ["theta1=0.25"], ["theta1_over_pi", "theta2_over_pi"],
     [*DQPT_RESULTS, "q_max", "tol", "zero_mode_gate"]),
    ("work", [], ["theta1_over_pi", "theta2_over_pi"], []),
    ("scan", [], ["theta1_over_pi", "theta2_min_over_pi", "theta2_max_over_pi", "n_theta2"], []),
])
def test_metadata_is_the_common_keys_then_the_inputs_then_the_results(tmp_path, command, settings, inputs,
                                                                       results):
    # the inputs are the set ones among those the command table echoes
    echoed = [key for key in cli._COMMANDS[command][1] if key != "margin" or settings]
    assert [key.replace("_over_pi", "") for key in inputs] == echoed
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        argv = [command, *(arg for s in ["n_rungs=20", "n_points=200", "n_theta2=3", *settings]
                           for arg in ("--set", s))]
        assert run_cli(*argv, "--format", fmt, "--out", str(out)) == 0
        assert list(read_table(str(out))[0]) == COMMON_KEYS + inputs + results


@pytest.mark.parametrize("command, settings", [
    ("spectrum", ["n_rungs=20000", "theta=0.3"]),
    ("le", ["t_max=3", "n_points=40"]),
    ("revival", ["n_rungs=100"]),
    ("dqpt", ["n_rungs=300", "theta1=0.25", "theta2=-0.25", "t_max=4", "n_points=4001"]),
    ("work", ["theta2=0.3"]),
    ("scan", ["n_rungs=30", "n_theta2=9"]),
])
def test_runners_hand_the_writer_blocks_of_columns(tmp_path, monkeypatch, command, settings):
    # each block holds one 1-D column per name, all of one length, and the
    # rows of all blocks are the table the file holds
    write_table, seen = cli.write_table, []

    def checked(path, metadata, columns, blocks, fmt="csv"):
        blocks = list(blocks)
        for block in blocks:
            assert len(block) == len(columns)
            assert all(np.ndim(column) == 1 and len(column) == len(block[0]) for column in block)
        seen.append(sum(len(block[0]) for block in blocks))
        write_table(path, metadata, columns, blocks, fmt)

    monkeypatch.setattr(cli, "write_table", checked)
    out = tmp_path / "out.csv"
    assert run_cli(command, *(arg for s in settings for arg in ("--set", s)), "--out", str(out)) == 0
    _, columns, rows = read_table(str(out))
    assert len(columns) >= 3 and seen == [len(rows)] and len(rows) > 0


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

    def test_critical_modes_are_solved_once(self, tmp_path, monkeypatch):
        # the run lists its predicted times from the modes it solved, the
        # times predict_dqpt_times lists
        calls, solve = [], dqpt.solve_critical_modes
        monkeypatch.setattr(dqpt, "solve_critical_modes", lambda spec: calls.append(spec) or solve(spec))
        out = tmp_path / "dqpt.csv"
        assert run_cli("dqpt", "--set", "n_rungs=300", "--set", "theta1=0.25", "--set", "theta2=-0.25",
                       "--set", "t_max=10", "--set", "n_points=101", "--out", str(out)) == 0
        assert len(calls) == 1
        meta, _, _ = read_table(str(out))
        assert meta["predicted_times"] == ";".join(map(repr, dqpt.predict_dqpt_times(calls[0], 10.0)))

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


@pytest.mark.parametrize("argv, per_element", [
    pytest.param(["dqpt", "--set", "n_rungs=2000", "--set", "theta1=0.25", "--set", "theta2=-0.25",
                  "--set", "t_max=3.5", "--set", "n_points=3501"], True, id="argv0"),
    # every mode of the N 100 ladder takes the series: no per-element split
    pytest.param(["revival", "--set", "n_rungs=100"], False, id="argv1"),
    # 1 of the 499 modes of the revival grid stays per element
    pytest.param(["revival", "--set", "n_rungs=1000", "--set", "theta1=0.0016"], True, id="revival-n1000"),
])
def test_output_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, argv, per_element):
    outputs, splits = [], record_splits(monkeypatch)
    for workers in (1, 2):
        monkeypatch.setattr(quench, "_worker_count", lambda: workers)
        splits.clear()
        out = tmp_path / f"{workers}.csv"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert splits == ([workers] if per_element else [])  # one split of the blocks, or none
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


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@given(
    command=st.sampled_from(sorted(cli._COMMANDS)),
    settings_=st.dictionaries(st.sampled_from(sorted(["j", *cli._KEYS])), fuzz_value,
                              min_size=1, max_size=3),
    fmt=st.sampled_from(["csv", "json"]),
)
# a cusp with no predicted time: its t_predicted_nearest and abs_diff are inf
@example(command="dqpt", settings_={"n_rungs": "300", "theta1": "0.25", "theta2": "0"}, fmt="json")
@settings(max_examples=300, deadline=None)
def test_every_command_and_key_ends_in_exit_code_not_traceback(command, settings_, fmt):
    base = {"n_rungs": "6", "n_points": "64", "n_theta2": "3"}
    items = [f"{key}={value}" for key, value in {**base, **settings_}.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out." + fmt)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(command, *(arg for item in items for arg in ("--set", item)),
                           "--format", fmt, "--out", out)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            if fmt == "json":  # strict: no Infinity or NaN literals
                with open(out) as handle:
                    json.loads(handle.read(), parse_constant=_refuse_constant)
            _, _, rows = read_table(out)
            assert not np.any(np.isnan(rows))


@pytest.mark.parametrize("command", ["spectrum", "le", "revival", "dqpt", "work", "scan"])
def test_every_command_refuses_hoppings_that_underflow(tmp_path, capsys, command):
    # revival used to size its default grid from the period of a 1e-160
    # hopping (about 1e162 points) and exit 1 before any table refused it
    out = tmp_path / "out.csv"
    code = run_cli(command, "--set", "j=1e-160", "--set", "j_v=1e-160", "--set", "n_rungs=12",
                   "--set", "theta1=0.25", "--set", "theta2=0", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert "domain error" in err and "underflow" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tiny", ["1e-160", "1e-170"])
def test_hoppings_that_underflow_end_in_domain_error(tmp_path, capsys, tiny):
    # at 1e-170 every gap and amplitude of the table read 0, and `le`
    # wrote le = 1 on every row with exit 0
    out = tmp_path / "le.csv"
    code = run_cli("le", "--set", f"j={tiny}", "--set", f"j_v={tiny}", "--set", "n_rungs=12",
                   "--set", "theta1=0.3", "--set", "theta2=-0.9", "--set", "t_max=1e170",
                   "--set", "n_points=4", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert "domain error" in err and "underflow" in err and "Traceback" not in err
    assert not out.exists()


def _openblas_paths() -> list:
    """Mapped OpenBLAS libraries that export the pool's shutdown routine."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
        return [path for path in paths if hasattr(ctypes.CDLL(path), "blas_thread_shutdown_")]
    except OSError:
        return []


needs_openblas = pytest.mark.skipif(not _openblas_paths(), reason="numpy's BLAS is not OpenBLAS on Linux")
FRESH_ENV = {key: value for key, value in os.environ.items()
             if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
FRESH_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def run_fresh(script: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", script, *args], env=FRESH_ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@needs_openblas
def test_cli_run_leaves_no_spinning_blas_thread():
    # numpy first, as a host program would: its OpenBLAS workers spin after
    # the import (two threads and 0.07 s of CPU in a 0.2 s sleep after the
    # run, before the park)
    script = (
        "import os, time\n"
        "import numpy as np\n"
        "from creutz import cli\n"
        "assert cli.main(['dqpt', '--set', 'n_rungs=300', '--out', os.devnull]) == 0\n"
        "start = time.process_time()\n"
        "time.sleep(0.2)\n"
        "print(len(os.listdir('/proc/self/task')), time.process_time() - start)\n"
    )
    threads, cpu = run_fresh(script).split()
    assert int(threads) == 1
    assert float(cpu) < 0.02


@needs_openblas
@pytest.mark.skipif(model._worker_count() < 2, reason="the kernel starts no thread on one CPU")
def test_loschmidt_echo_leaves_no_spinning_blas_thread():
    # a plain library call after numpy's import: the kernel parks the pool
    # before it starts its threads (two threads and 0.08 s of CPU in a
    # 0.2 s sleep after the call, before the park)
    script = (
        "import os, time\n"
        "import numpy as np\n"
        "from creutz import LadderParams, QuenchSpec, loschmidt_echo\n"
        "spec = QuenchSpec(LadderParams(1.0, 1.0, 1.0, 0.0, 300), 0.25 * np.pi, -0.25 * np.pi)\n"
        "loschmidt_echo(spec, np.linspace(0.0, 10.0, 2001))\n"
        "start = time.process_time()\n"
        "time.sleep(0.2)\n"
        "print(len(os.listdir('/proc/self/task')), time.process_time() - start)\n"
    )
    threads, cpu = run_fresh(script).split()
    assert int(threads) == 1
    assert float(cpu) < 0.02


@needs_openblas
def test_blas_results_are_the_same_after_the_park():
    # the pool restarts on the next threaded call; eigvalsh and a product
    # large enough for threads give the same bits
    spec = QuenchSpec(LadderParams(1.0, 1.0, 1.0, 0.0, 12), 0.3 * math.pi, -0.9 * math.pi)
    times = np.linspace(0.0, 5.0, 7)
    a = np.random.default_rng(3).standard_normal((400, 400))
    before = [*model.exact_le_oracle(spec, times), a @ a]
    model._park_blas_pool()
    after = [*model.exact_le_oracle(spec, times), a @ a]
    assert [np.asarray(x).tobytes() for x in before] == [np.asarray(x).tobytes() for x in after]


@pytest.fixture
def fresh_park():
    """The park's routines found anew in the test, and again after it."""
    model._blas_shutdowns.cache_clear()
    yield
    model._blas_shutdowns.cache_clear()


@pytest.mark.usefixtures("fresh_park")
@pytest.mark.parametrize("maps, cdll_result", [
    (PermissionError, None),
    ("7f0-7f1 r-xp 00000000 08:01 42 /usr/lib/libm.so.6\n", None),
    ("7f0-7f1 r-xp 00000000 08:01 42 /usr/lib/libopenblas.so.0\n", OSError),
    ("7f0-7f1 r-xp 00000000 08:01 42 /usr/lib/libopenblas.so.0 (deleted)\n", OSError),
    ("7f0-7f1 r-xp 00000000 08:01 42 /usr/lib/libopenblas.so.0\n", "no symbol"),
])
def test_park_returns_quietly_without_a_pool(monkeypatch, maps, cdll_result):
    # no /proc, no OpenBLAS (MKL, BLIS, Accelerate), a path that is not a
    # library, or an OpenBLAS without the routine: nothing to stop
    loaded = []

    def fake_open(path, *args, **kwargs):
        assert path == "/proc/self/maps"
        if isinstance(maps, type):
            raise maps(path)
        return io.StringIO(maps)

    def fake_cdll(path):
        loaded.append(path)
        if cdll_result is OSError:
            raise OSError(f"{path}: cannot open shared object file")
        return object()

    monkeypatch.setattr(model, "open", fake_open, raising=False)
    monkeypatch.setattr(model.ctypes, "CDLL", fake_cdll)
    assert model._park_blas_pool() is None
    assert loaded == ([] if cdll_result is None else [maps.split(maxsplit=5)[-1].strip()])


@pytest.mark.usefixtures("fresh_park")
def test_park_stops_each_mapped_openblas_once(monkeypatch):
    maps = "".join(f"7f{i}-7f{i + 1} r-xp 00000000 08:01 42 {path}\n" for i, path in enumerate(
        ["/opt/numpy.libs/libscipy_openblas64_-1a.so"] * 3 + ["/usr/lib/libopenblas.so.0"]))
    stopped = []

    def fake_cdll(path):
        def shutdown():
            stopped.append(path)
            return 0
        return type("Library", (), {"blas_thread_shutdown_": staticmethod(shutdown)})()

    monkeypatch.setattr(model, "open", lambda path: io.StringIO(maps), raising=False)
    monkeypatch.setattr(model.ctypes, "CDLL", fake_cdll)
    model._park_blas_pool()
    assert stopped == ["/opt/numpy.libs/libscipy_openblas64_-1a.so", "/usr/lib/libopenblas.so.0"]


@pytest.mark.usefixtures("fresh_park")
@pytest.mark.parametrize("maps", [PermissionError,
                                  "7f0-7f1 r-xp 00000000 08:01 42 /usr/lib/libopenblas.so.0\n"])
def test_park_reads_the_maps_once_per_process(monkeypatch, maps):
    # the second and later parks stop the routines the first one found,
    # and a process without /proc looks once too
    reads, stopped = [], []

    def fake_open(path, *args, **kwargs):
        reads.append(path)
        if isinstance(maps, type):
            raise maps(path)
        return io.StringIO(maps)

    def fake_cdll(path):
        return type("Library", (), {"blas_thread_shutdown_": staticmethod(lambda: stopped.append(path))})()

    monkeypatch.setattr(model, "open", fake_open, raising=False)
    monkeypatch.setattr(model.ctypes, "CDLL", fake_cdll)
    for _ in range(3):
        model._park_blas_pool()
    assert reads == ["/proc/self/maps"]
    assert stopped == ([] if isinstance(maps, type) else ["/usr/lib/libopenblas.so.0"] * 3)


def test_outputs_are_the_same_bytes_with_and_without_the_park():
    # every command in a fresh process, once with both calls of the park
    # (the CLI's and the thread runner's) patched to a no-op: the BLAS pool's
    # state must not reach any output
    script = (
        "import hashlib, os, sys, tempfile\n"
        "import numpy as np\n"
        "from creutz import cli, model\n"
        "if sys.argv[1] == 'off':\n"
        "    cli._park_blas_pool = model._park_blas_pool = lambda: None\n"
        "runs = [['spectrum', '--set', 'n_rungs=40', '--set', 'theta=0.3'],\n"
        "        ['le', '--set', 'n_rungs=40', '--set', 'theta1=0.25', '--set', 'theta2=-0.25',\n"
        "         '--set', 't_max=5', '--set', 'n_points=501'],\n"
        "        ['le', '--set', 'n_rungs=40', '--set', 't_max=5', '--set', 'n_points=51',\n"
        "         '--format', 'json'],\n"
        "        ['revival', '--set', 'n_rungs=100'],\n"
        "        ['dqpt', '--set', 'n_rungs=300', '--set', 't_max=3', '--set', 'n_points=3001'],\n"
        "        ['work', '--set', 'n_rungs=50', '--set', 'theta1=0.25', '--set', 'theta2=-0.25'],\n"
        "        ['scan', '--set', 'n_rungs=200', '--set', 'n_theta2=41']]\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    for i, argv in enumerate(runs):\n"
        "        out = os.path.join(tmp, f'{i}.out')\n"
        "        assert cli.main([*argv, '--out', out]) == 0\n"
        "        with open(out, 'rb') as handle:\n"
        "            print(argv[0], hashlib.sha256(handle.read()).hexdigest())\n"
    )
    off, on = run_fresh(script, "off"), run_fresh(script, "on")
    assert off.count("\n") == 7
    assert on == off
