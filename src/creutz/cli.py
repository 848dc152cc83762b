"""Command-line front end.

    creutz <command> [--config FILE] [--set key=value]... [--out PATH]
                     [--format csv|json]

Commands: spectrum, le, revival, dqpt, work, scan.  Configuration is a
flat key = value text file; ``--set`` overrides win over the file.  The
output target is set by ``--out`` and ``--format`` only.  All
angles are given in units of pi (``theta2 = -0.25`` means -0.25 pi).
Identical configurations write identical bytes.  Exit codes: 0 success,
1 configuration error (including a size beyond ``MAX_TIME_POINTS`` or
``MAX_TABLE_ROWS``), 2 domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import operator
import sys
from dataclasses import dataclass, fields
from math import inf, isfinite, pi
from typing import Any, Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError
from .model import (LadderParams, ModeData, QuenchSpec, _park_blas_pool, allowed_modes, is_critical_flux,
                    mode_data)
from .serialize import write_table  # the runners import quench, dqpt, revival and thermo

# Most points a time grid may have: 10^8 float64 times are 800 MB before
# the echo series triples them.
MAX_TIME_POINTS = 10**8
# Most rows a mode or theta2 table may have (n_rungs, and n_theta2 for
# scan), and most cusp times dqpt may predict: a spectrum of 10^6 rungs
# peaks at about 43 MB and a scan of 10^6 angles at about 136 MB, as CSV or
# JSON, and both grow linearly, as does the list of cusp times.
MAX_TABLE_ROWS = 10**7

# key -> (parser, default).  ``j`` is not a key of its own: it parses as a
# float and fills j_h and j_d where those are not set explicitly.
_KEYS: dict[str, tuple[Callable[[str], Any], Any]] = {
    "j_h": (float, 1.0),
    "j_v": (float, 1.0),
    "j_d": (float, None),  # falls back to j_h, in build_config
    "n_rungs": (int, 100),
    "theta": (float, 0.0),
    "theta1": (float, 0.0016),
    "theta2": (float, 0.0),
    "t_max": (float, None),
    "n_points": (int, None),
    "q_max": (int, 64),
    "tol": (float, 1e-9),
    "margin": (float, None),
    "window": (int, 5),
    "peak_fraction": (float, 0.6),
    "sensitivity": (float, 20.0),
    "theta2_min": (float, -1.0),
    "theta2_max": (float, 1.0),
    "n_theta2": (int, 401),
}


@dataclass
class RunConfig:
    """One fully resolved run: command, physics inputs, and output target."""

    command: str
    values: dict[str, Any]
    out: str  # path, '-' for stdout
    fmt: str  # csv or json

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    @property
    def params(self) -> LadderParams:
        v = self.values
        return LadderParams(
            j_h=v["j_h"], j_v=v["j_v"], j_d=v["j_d"],
            theta=v["theta"] * pi, n_rungs=v["n_rungs"],
        )

    @property
    def quench(self) -> QuenchSpec:
        return QuenchSpec(
            params=self.params,
            theta_pre=self.values["theta1"] * pi,
            theta_post=self.values["theta2"] * pi,
        )


def _read_assignment(body: str, where: str, expected: str) -> tuple[str, Any]:
    """Key and parsed value of one ``key = value`` assignment; an error names ``where``."""
    key, eq, raw = body.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected {expected}")
    key, raw = key.strip(), raw.strip()
    if key != "j" and key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return key, float(raw) if key == "j" else _KEYS[key][0](raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from None


def load_config_file(path: str) -> dict[str, Any]:
    """Parse a flat ``key = value`` file; '#' starts a comment, and a UTF-8
    byte-order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, Any] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            key, values[key] = _read_assignment(body, f"{path}:{lineno}", f"'key = value', got {body!r}")
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values = {key: default for key, (_, default) in _KEYS.items()}
    overrides: dict[str, Any] = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    for item in args.set or []:
        key, overrides[key] = _read_assignment(item, f"--set {item!r}", "key=value")
    if "j" in overrides:
        j = overrides.pop("j")
        overrides.setdefault("j_h", j)
        overrides.setdefault("j_d", j)
    values.update(overrides)
    if values["j_d"] is None:
        values["j_d"] = values["j_h"]
    _validate(args.command, values)
    return RunConfig(command=args.command, values=values, out=args.out, fmt=args.format)


def _validate(command: str, values: dict[str, Any]) -> None:
    for key in ("n_rungs", "n_theta2") if command == "scan" else ("n_rungs",):
        if not 2 <= values[key] <= MAX_TABLE_ROWS:
            raise ConfigError(f"{key} must lie in [2, {MAX_TABLE_ROWS:g}], got {values[key]}")
    if values["n_points"] is not None and values["n_points"] < 2:
        raise ConfigError(f"n_points must be >= 2, got {values['n_points']}")
    if values["t_max"] is not None and not 0.0 < values["t_max"] < inf:
        raise ConfigError(f"t_max must be positive and finite, got {values['t_max']}")
    # checked before np.linspace and the numpy conversion to radians, which
    # would overflow: every grid angle lies between finite ends in radians
    if command == "scan":
        lo, hi = values["theta2_min"], values["theta2_max"]
        if not (isfinite((hi - lo) * pi) and isfinite(max(abs(lo), abs(hi)) * pi)):
            raise DomainError(f"theta2 range [{lo}, {hi}] pi must be finite in radians")
    elif command == "work" and not isfinite(values["theta2"] * pi):
        raise DomainError(f"angle must be finite, got {values['theta2']} pi")


def _time_grid(cfg: RunConfig, default_t_max: float, default_dt: float) -> np.ndarray:
    t_max = cfg["t_max"] if cfg["t_max"] is not None else default_t_max
    n_points = cfg["n_points"]
    if n_points is None:
        steps = t_max / default_dt  # inf when t_max is near the float maximum
        n_points = max(2, int(round(steps)) + 1) if steps < MAX_TIME_POINTS else steps + 1.0
    if not n_points <= MAX_TIME_POINTS:  # also refuses a nan count
        raise ConfigError(
            f"time grid of {n_points:.12g} points exceeds the limit of {MAX_TIME_POINTS:g}; "
            "lower t_max or set n_points"
        )
    return np.linspace(0.0, t_max, n_points)


_SPECTRUM_COLUMNS = [field.name for field in fields(ModeData)]
_spectrum_block = operator.attrgetter(*_SPECTRUM_COLUMNS)  # a ModeData's columns, in order
_SPECTRUM_BLOCK_MODES = 8192  # modes per mode_data call, which peaks at 80 bytes a mode


def _cmd_spectrum(cfg: RunConfig):
    params, step = cfg.params, _SPECTRUM_BLOCK_MODES
    k = allowed_modes(params.n_rungs)
    # one mode_data call per block as the writer asks for it; no block is held after
    return {}, _SPECTRUM_COLUMNS, (_spectrum_block(mode_data(params, k[lo : lo + step]))
                                   for lo in range(0, k.size, step))


def _cmd_le(cfg: RunConfig):
    from .quench import loschmidt_echo

    times = _time_grid(cfg, default_t_max=100.0, default_dt=0.02)
    series = loschmidt_echo(cfg.quench, times, include_la=False)
    results = dict(t_max=float(times[-1]), n_points=int(times.size))
    return results, ["t", "le", "rate"], [[series.times, series.le, series.rate]]


def _cmd_revival(cfg: RunConfig):
    from . import revival
    from .quench import loschmidt_echo

    spec = cfg.quench
    prediction = revival.predict_revival(spec, q_max=cfg["q_max"], tol=cfg["tol"])
    times = _time_grid(cfg, default_t_max=2.0 * prediction.period, default_dt=0.02)
    series = loschmidt_echo(spec, times, include_la=False)
    detection = revival.detect_revivals(series, margin=cfg["margin"], window=cfg["window"],
                                        peak_fraction=cfg["peak_fraction"])
    results = dict(
        base=prediction.base,
        effective_n=prediction.effective_n,
        predicted_period=prediction.period,
        commensurate=prediction.commensurate,
        first_revival=detection.first_revival,
        mean_level=detection.mean_level,
        threshold=detection.threshold,
        relaxation_time=detection.relaxation_time,
        t_max=float(times[-1]),
        n_points=int(times.size),
    )
    grid_le = np.interp(detection.revival_times, series.times, series.le)
    return (results, ["revival_index", "t_revival", "le_at_revival"],
            [[np.arange(grid_le.size), detection.revival_times, grid_le]])


def _cmd_dqpt(cfg: RunConfig):
    from . import dqpt
    from .quench import loschmidt_echo

    spec = cfg.quench
    times = _time_grid(cfg, default_t_max=10.0, default_dt=1e-3)
    gate = None  # decided before the kernel runs, so a bad q_max or tol fails fast
    if is_critical_flux(spec.theta_post):
        gate = dqpt.finite_size_dqpt_gate(spec, q_max=cfg["q_max"], tol=cfg["tol"])
    modes = dqpt.solve_critical_modes(spec)
    t_max = float(times[-1])
    predicted = dqpt._cusp_times(modes, t_max, MAX_TABLE_ROWS, ConfigError)
    series = loschmidt_echo(spec, times, include_la=False)
    cusps = dqpt.detect_cusps(series, sensitivity=cfg["sensitivity"])
    results = dict(
        possible=dqpt.dqpt_possible(spec),
        n_critical_modes=len(modes),
        k_star=";".join(repr(m.k_star) for m in modes),
        t_star=";".join(repr(m.t_star) for m in modes),
        predicted_times=";".join(repr(t) for t in predicted),
        sensitivity=cfg["sensitivity"],
        t_max=t_max,
        n_points=int(times.size),
    )
    if gate is not None:
        results.update(q_max=cfg["q_max"], tol=cfg["tol"], zero_mode_gate=gate)
    cusps = np.asarray(cusps, dtype=float)
    nearest = np.full(cusps.size, np.inf)  # no finite cusp time predicted
    if predicted:  # sorted; the neighbours of each cusp, the earlier one on a tie
        predicted = np.asarray(predicted)
        i = np.searchsorted(predicted, cusps)
        left, right = predicted[np.maximum(i - 1, 0)], predicted[np.minimum(i, predicted.size - 1)]
        nearest = np.where(np.abs(left - cusps) <= np.abs(right - cusps), left, right)
    return (results, ["cusp_index", "t_cusp", "t_predicted_nearest", "abs_diff"],
            [[np.arange(cusps.size), cusps, nearest, np.abs(cusps - nearest)]])


_WORK_COLUMNS = [
    "theta1_over_pi", "theta2_over_pi",
    "average_work", "delta_f", "irreversible_work",
    "average_work_per_rung", "delta_f_per_rung", "irreversible_work_per_rung",
]


def _cmd_work(cfg: RunConfig):
    """``work`` and ``scan``: one row per theta2, ``work`` having the one angle."""
    from . import thermo

    scan = cfg.command == "scan"
    theta2 = np.linspace(cfg["theta2_min"], cfg["theta2_max"], cfg["n_theta2"]) if scan else np.array([cfg["theta2"]])
    sums = thermo.scan_theta2(cfg.params, cfg["theta1"] * pi, theta2 * pi)
    return {}, _WORK_COLUMNS, [[np.full(theta2.size, cfg["theta1"]), theta2, *sums, *(sums / cfg.params.n_rungs)]]


# command -> (help, the inputs its metadata echoes, runner).  A runner makes
# every check, then returns its metadata results, its column names and its
# rows as blocks of columns.  Every angle key, and no other, starts with "theta".
_COMMANDS: dict[str, tuple[str, tuple[str, ...], Callable[[RunConfig], tuple]]] = {
    "spectrum": ("per-mode band data of one ladder", ("theta",), _cmd_spectrum),
    "le": ("Loschmidt echo and rate function on a time grid", ("theta1", "theta2"), _cmd_le),
    "revival": ("predict and detect echo revivals",
                ("theta1", "theta2", "q_max", "tol", "window", "peak_fraction", "margin"), _cmd_revival),
    "dqpt": ("critical modes, predicted cusp times, detected cusps", ("theta1", "theta2"), _cmd_dqpt),
    "work": ("average work, free-energy difference, irreversible work", ("theta1", "theta2"), _cmd_work),
    "scan": ("work statistics swept over the post-quench flux",
             ("theta1", "theta2_min", "theta2_max", "n_theta2"), _cmd_work),
}


def run(config: RunConfig) -> int:
    """Execute one resolved configuration and write its output table, whose
    metadata is the common keys, the command's echoed inputs, then its results."""
    _park_blas_pool()
    _, echoed, runner = _COMMANDS[config.command]
    results, columns, blocks = runner(config)
    p = config.params
    meta: dict[str, Any] = dict(command=config.command, j_h=p.j_h, j_v=p.j_v, j_d=p.j_d, n_rungs=p.n_rungs)
    for key in echoed:
        if config[key] is not None:
            meta[f"{key}_over_pi" if key.startswith("theta") else key] = config[key]
    meta.update(results)
    write_table(config.out, meta, columns, blocks, fmt=config.fmt)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creutz",
        description="Quench dynamics of the Creutz ladder: spectra, echo series, "
        "revivals, dynamical transitions, and work statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="flat key = value configuration file")
        cmd.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override one configuration key (repeatable; wins over --config)",
        )
        cmd.add_argument("--out", default="-", help="output path ('-' for stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors; keep 1 for any bad input
            return 0 if exc.code == 0 else 1
        config = build_config(args)
        return run(config)
    except ConfigError as exc:
        print(f"creutz: configuration error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"creutz: domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"creutz: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
