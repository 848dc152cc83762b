"""Command-line front end.

    creutz <command> [--config FILE] [--set key=value]... [--out PATH]
                     [--format csv|json]

Commands: spectrum, le, revival, dqpt, work, scan.  Configuration is a
flat key = value text file; ``--set`` overrides win over the file.  All
angles are given in units of pi (``theta2 = -0.25`` means -0.25 pi).
Exit codes: 0 success, 1 configuration error, 2 domain error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from math import inf, pi
from typing import Any, Callable, Optional

import numpy as np

from . import dqpt, revival, thermo
from .errors import ConfigError, CreutzError, DomainError
from .model import LadderParams, allowed_modes, is_critical_flux, mode_data
from .quench import QuenchSpec, loschmidt_echo
from .serialize import write_table

# Most points a time grid may have: 10^8 float64 times are 800 MB before
# the echo series triples them.
MAX_TIME_POINTS = 10**8

# key -> (parser, default).  ``j`` is not a key of its own: it parses as a
# float and fills j_h and j_d where those are not set explicitly.
_KEYS: dict[str, tuple[Callable[[str], Any], Any]] = {
    "j_h": (float, 1.0),
    "j_v": (float, 1.0),
    "j_d": (float, None),  # falls back to j_h
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
    "out": (str, "-"),
    "format": (str, "csv"),
    "timestamp": (lambda v: v.lower() in ("1", "true", "yes", "on"), False),
}


@dataclass
class RunConfig:
    """One fully resolved run: command, physics inputs, and output target."""

    command: str
    values: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    @property
    def params(self) -> LadderParams:
        v = self.values
        j_d = v["j_d"] if v["j_d"] is not None else v["j_h"]
        return LadderParams(
            j_h=v["j_h"], j_v=v["j_v"], j_d=j_d,
            theta=v["theta"] * pi, n_rungs=v["n_rungs"],
        )

    @property
    def quench(self) -> QuenchSpec:
        return QuenchSpec(
            params=self.params,
            theta_pre=self.values["theta1"] * pi,
            theta_post=self.values["theta2"] * pi,
        )


def _parse_value(key: str, raw: str, where: str) -> Any:
    if key != "j" and key not in _KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        return float(raw) if key == "j" else _KEYS[key][0](raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from None


def load_config_file(path: str) -> dict[str, Any]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, Any] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        values[key] = _parse_value(key, raw.strip(), f"{path}:{lineno}")
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values = {key: default for key, (_, default) in _KEYS.items()}
    overrides: dict[str, Any] = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        overrides[key.strip()] = _parse_value(key.strip(), raw.strip(), f"--set {item!r}")
    if "j" in overrides:
        j = overrides.pop("j")
        overrides.setdefault("j_h", j)
        overrides.setdefault("j_d", j)
    values.update(overrides)
    if args.out is not None:
        values["out"] = args.out
    if args.format is not None:
        values["format"] = args.format
    if values["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {values['format']!r}")
    command = args.command
    if command == "work" and getattr(args, "scan", False):
        command = "scan"
    _validate(command, values)
    return RunConfig(command=command, values=values)


def _validate(command: str, values: dict[str, Any]) -> None:
    if values["n_rungs"] < 2:
        raise ConfigError(f"n_rungs must be >= 2, got {values['n_rungs']}")
    if values["n_points"] is not None and values["n_points"] < 2:
        raise ConfigError(f"n_points must be >= 2, got {values['n_points']}")
    if values["t_max"] is not None and not 0.0 < values["t_max"] < inf:
        raise ConfigError(f"t_max must be positive and finite, got {values['t_max']}")
    if command == "scan" and values["n_theta2"] < 2:
        raise ConfigError(f"n_theta2 must be >= 2, got {values['n_theta2']}")


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


def _base_metadata(cfg: RunConfig, angle_keys: tuple[str, ...]) -> dict[str, Any]:
    p = cfg.params
    meta: dict[str, Any] = {"command": cfg.command}
    meta.update(j_h=p.j_h, j_v=p.j_v, j_d=p.j_d, n_rungs=p.n_rungs)
    for key in angle_keys:
        meta[f"{key}_over_pi"] = cfg[key]
    if cfg["timestamp"]:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _cmd_spectrum(cfg: RunConfig):
    params = cfg.params
    m = mode_data(params, allowed_modes(params.n_rungs))
    columns = ["k", "eps_q", "eps_p", "eps_qp", "gamma", "e_alpha", "e_beta", "gap"]
    rows = np.column_stack([getattr(m, name) for name in columns])
    return _base_metadata(cfg, ("theta",)), columns, rows


def _cmd_le(cfg: RunConfig):
    times = _time_grid(cfg, default_t_max=100.0, default_dt=0.02)
    series = loschmidt_echo(cfg.quench, times, include_la=False)
    meta = _base_metadata(cfg, ("theta1", "theta2"))
    meta.update(t_max=float(times[-1]), n_points=int(times.size))
    rows = np.column_stack([series.times, series.le, series.rate])
    return meta, ["t", "le", "rate"], rows


def _cmd_revival(cfg: RunConfig):
    spec = cfg.quench
    prediction = revival.predict_revival(spec, q_max=cfg["q_max"], tol=cfg["tol"])
    times = _time_grid(cfg, default_t_max=2.0 * prediction.period, default_dt=0.02)
    series = loschmidt_echo(spec, times, include_la=False)
    detection = revival.detect_revivals(
        series, margin=cfg["margin"], window=cfg["window"],
        peak_fraction=cfg["peak_fraction"],
    )
    meta = _base_metadata(cfg, ("theta1", "theta2"))
    meta.update(q_max=cfg["q_max"], tol=cfg["tol"], window=cfg["window"],
                peak_fraction=cfg["peak_fraction"])
    if cfg["margin"] is not None:
        meta["margin"] = cfg["margin"]
    meta.update(
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
    rows = np.column_stack(
        [np.arange(detection.revival_times.size), detection.revival_times, grid_le]
    )
    return meta, ["revival_index", "t_revival", "le_at_revival"], rows


def _cmd_dqpt(cfg: RunConfig):
    spec = cfg.quench
    times = _time_grid(cfg, default_t_max=10.0, default_dt=1e-3)
    possible = dqpt.dqpt_possible(spec)
    modes = dqpt.solve_critical_modes(spec)
    predicted = dqpt.predict_dqpt_times(spec, t_max=float(times[-1])) if modes else []
    series = loschmidt_echo(spec, times, include_la=False)
    cusps = dqpt.detect_cusps(series, sensitivity=cfg["sensitivity"])
    meta = _base_metadata(cfg, ("theta1", "theta2"))
    meta.update(
        possible=possible,
        n_critical_modes=len(modes),
        k_star=";".join(repr(m.k_star) for m in modes),
        t_star=";".join(repr(m.t_star) for m in modes),
        predicted_times=";".join(repr(t) for t in predicted),
        sensitivity=cfg["sensitivity"],
        t_max=float(times[-1]),
        n_points=int(times.size),
    )
    if is_critical_flux(spec.theta_post):
        meta["zero_mode_gate"] = dqpt.finite_size_dqpt_gate(spec)
    cusps = np.asarray(cusps, dtype=float)
    nearest = np.full(cusps.size, np.nan)
    if predicted:  # sorted; the neighbours of each cusp, the earlier one on a tie
        predicted = np.asarray(predicted)
        i = np.searchsorted(predicted, cusps)
        left, right = predicted[np.maximum(i - 1, 0)], predicted[np.minimum(i, predicted.size - 1)]
        nearest = np.where(np.abs(left - cusps) <= np.abs(right - cusps), left, right)
    data = np.column_stack([np.arange(cusps.size), cusps, nearest, np.abs(cusps - nearest)])
    return meta, ["cusp_index", "t_cusp", "t_predicted_nearest", "abs_diff"], data


def _work_row(stats: thermo.WorkStats, theta1: float, theta2: float) -> list[float]:
    n = stats.n_rungs
    return [
        theta1, theta2,
        stats.average_work, stats.delta_f, stats.irreversible_work,
        stats.average_work / n, stats.delta_f / n, stats.irreversible_work / n,
    ]


_WORK_COLUMNS = [
    "theta1_over_pi", "theta2_over_pi",
    "average_work", "delta_f", "irreversible_work",
    "average_work_per_rung", "delta_f_per_rung", "irreversible_work_per_rung",
]


def _cmd_work(cfg: RunConfig):
    stats = thermo.work_stats(cfg.quench)
    meta = _base_metadata(cfg, ("theta1", "theta2"))
    rows = np.asarray([_work_row(stats, cfg["theta1"], cfg["theta2"])])
    return meta, _WORK_COLUMNS, rows


def _cmd_scan(cfg: RunConfig):
    grid = np.linspace(cfg["theta2_min"], cfg["theta2_max"], cfg["n_theta2"])
    stats = thermo.scan_theta2(cfg.params, cfg["theta1"] * pi, grid * pi)
    meta = _base_metadata(cfg, ("theta1",))
    meta.update(
        theta2_min_over_pi=cfg["theta2_min"],
        theta2_max_over_pi=cfg["theta2_max"],
        n_theta2=cfg["n_theta2"],
    )
    rows = np.asarray(
        [_work_row(s, cfg["theta1"], float(t2)) for s, t2 in zip(stats, grid)]
    )
    return meta, _WORK_COLUMNS, rows


_RUNNERS = {
    "spectrum": _cmd_spectrum,
    "le": _cmd_le,
    "revival": _cmd_revival,
    "dqpt": _cmd_dqpt,
    "work": _cmd_work,
    "scan": _cmd_scan,
}


def run(config: RunConfig) -> int:
    """Execute one resolved configuration and write its output table."""
    meta, columns, rows = _RUNNERS[config.command](config)
    write_table(config["out"], meta, columns, rows, fmt=config["format"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creutz",
        description="Quench dynamics of the Creutz ladder: spectra, echo series, "
        "revivals, dynamical transitions, and work statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "per-mode band data of one ladder"),
        ("le", "Loschmidt echo and rate function on a time grid"),
        ("revival", "predict and detect echo revivals"),
        ("dqpt", "critical modes, predicted cusp times, detected cusps"),
        ("work", "average work, free-energy difference, irreversible work"),
        ("scan", "work statistics swept over the post-quench flux"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="flat key = value configuration file")
        cmd.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override one configuration key (repeatable; wins over --config)",
        )
        cmd.add_argument("--out", help="output path ('-' for stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), help="output format")
        if name == "work":
            cmd.add_argument(
                "--scan", action="store_true",
                help="sweep theta2 instead of a single quench (same as the scan command)",
            )
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
    except CreutzError as exc:
        print(f"creutz: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"creutz: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
