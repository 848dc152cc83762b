"""The three benchmark workloads and the checks on their outputs.

Each workload is a list of steps.  A step is one CLI command (run as
``creutz.cli.main``) or the library echo call, and writes one output
file.  The seed jitters theta1 inside each workload's physics regime;
N, the grid and the checks stay fixed.  ``tiny=True`` gives the same
workloads at self-test sizes.

Every check returns (problems, facts): a list of failed conditions and
a dict of counts the traced run reports.  Checks are never timed.  They
fail closed: every parsed value must be finite, and every tolerance test
is written as ``not worst <= tol`` so that a NaN counts as a failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# dqpt_revival runs criterion 6's dqpt and criterion 1's revival as one
# pass, so that each workload gets runs long enough to be steady on a
# shared 2-vCPU machine (see README.md); both are the echo-only kernel.
NAMES = ("dqpt_revival", "echo_amplitude", "mode_tables")

# Checks that compare floats parsed back from 15-significant-digit CSV.
# average_work and delta_f are differences of sums over N = 20000 modes,
# so their rounding error reaches N * eps ~ 4e-12 of O(1) values (measured:
# 4.6e-12 at theta1 = 0.2549722, where both are -1.06); 1e-10 leaves room
# for that and still fails on any missing or wrong term.
SCAN_IDENTITY_RTOL = 1e-10
SPECTRUM_GAP_ATOL = 1e-12
# Echo checks, in the log domain (an absolute log error is a relative error).
AMPLITUDE_LOG_TOL = 1e-10
ORACLE_TOL = 1e-10
REVIVAL_PERIOD_RTOL = 0.002
REVIVAL_FIRST_RTOL = 0.01
CUSP_GRID_STEPS = 2


@dataclass(frozen=True)
class Step:
    """One process-sized unit of work with its output check."""

    command: str  # CLI command, or "echo" for the library call
    settings: dict
    out: str  # output file name inside the run directory
    points: int  # modes x grid points evaluated
    check: Callable[[Path], tuple[list[str], dict]]
    kernel_bytes: int = 0  # computed size of the per-mode factor tables the echo kernel fills

    def spec(self, out_dir: Path) -> dict:
        """The JSON form child.py runs."""
        out = str(out_dir / self.out)
        if self.command == "echo":
            return {"kind": "echo", "settings": self.settings, "out": out}
        argv = [self.command]
        for key, value in self.settings.items():
            argv += ["--set", f"{key}={value}"]
        return {"kind": "cli", "argv": argv + ["--out", out], "out": out}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    theta1: float  # drawn from the seed (in dqpt_revival, the revival step's)
    steps: list
    oracle_check: bool = False  # compare the kernel with the determinant oracle at N=12

    @property
    def points(self) -> int:
        return sum(step.points for step in self.steps)


def _jitter(rng: random.Random, center: float, half_width: float) -> float:
    return round(center + half_width * (2.0 * rng.random() - 1.0), 7)


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "dqpt_revival":
        # dqpt theta1 stays at criterion 6's 0.25: at N=9000 the finite-size
        # shift of the cusps exceeds 2 grid steps for some theta1 in [0.24, 0.26].
        n, n_points = (900, 1001) if tiny else (9000, 10001)
        settings = dict(j=1.0, j_v=1.0, n_rungs=n, theta1=0.25, theta2=-0.25,
                        t_max=10.0, n_points=n_points)
        # kernel_bytes: one float64 echo factor per mode and time (computed, not measured)
        dqpt = Step("dqpt", settings, "dqpt.csv", n * n_points, _dqpt_check(settings),
                    kernel_bytes=8 * n * n_points)
        n, reference = (100, 86.58) if tiny else (1000, 865.44)
        theta1 = _jitter(rng, 0.0016, 0.0004)
        period = math.lcm(3, n) / (2.0 * math.sqrt(3.0))
        n_points = max(2, int(round(2.0 * period / 0.02)) + 1)
        settings = dict(j=1.0, j_v=1.0, n_rungs=n, theta1=theta1, theta2=0.0)
        check = _revival_check(period, reference, n_points)
        revival = Step("revival", settings, "revival.csv", n * n_points, check,
                       kernel_bytes=8 * n * n_points)
        return Workload(name, seed, theta1, [dqpt, revival])
    if name == "echo_amplitude":
        n, n_points = (900, 201) if tiny else (9000, 2001)
        theta1 = _jitter(rng, 0.25, 0.01)
        settings = dict(n_rungs=n, theta1=theta1, theta2=-0.25, t_max=10.0, n_points=n_points)
        # one float64 echo factor and one complex128 amplitude factor per mode and time
        step = Step("echo", settings, "echo.npy", n * n_points, _echo_check(n, n_points),
                    kernel_bytes=24 * n * n_points)
        return Workload(name, seed, theta1, [step], oracle_check=True)
    if name == "mode_tables":
        n_spectrum, n_scan, n_theta2 = (2000, 400, 41) if tiny else (100_000, 20_000, 401)
        theta1 = _jitter(rng, 0.25, 0.01)
        spectrum = Step("spectrum", dict(j=1.0, j_v=1.0, n_rungs=n_spectrum), "spectrum.csv",
                        n_spectrum, _spectrum_check(n_spectrum))
        scan = Step("scan", dict(j=1.0, j_v=1.0, n_rungs=n_scan, theta1=theta1,
                                 n_theta2=n_theta2),
                    "scan.csv", n_scan * n_theta2, _scan_check(n_theta2))
        return Workload(name, seed, theta1, [spectrum, scan])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def read_csv(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """Metadata, header and rows of a CSV table written by the CLI."""
    meta: dict[str, str] = {}
    header: list[str] = []
    body: list[str] = []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
            elif not header:
                header = line.strip().split(",")
            else:
                body.append(line)
    rows = np.loadtxt(body, delimiter=",", ndmin=2) if body else np.empty((0, len(header)))
    return meta, header, rows


def _not_finite(rows: np.ndarray) -> list[str]:
    """A problem if any parsed table value is NaN or infinite."""
    bad = int(np.size(rows) - np.count_nonzero(np.isfinite(rows)))
    return [f"{bad} non-finite values in the table"] if bad else []


def critical_times(j: float, j_v: float, theta1: float, theta2: float) -> list[float]:
    """Closed-form t* = 2 pi / gap_post(k*) of every unit-amplitude mode k* in (0, pi).

    Angles in units of pi.  Solves (2 j c + j_v)^2 + 4 j^2 (1 - c^2) s = 0
    for c = cos k*, with s = sin(theta1) sin(theta2).
    """
    s = math.sin(theta1 * math.pi) * math.sin(theta2 * math.pi)
    a, b, c0 = 4 * j * j * (1 - s), 4 * j * j_v, j_v * j_v + 4 * j * j * s
    disc = b * b - 4 * a * c0
    if s >= 0.0 or disc < 0.0:
        return []
    times = []
    for c in ((-b + math.sqrt(disc)) / (2 * a), (-b - math.sqrt(disc)) / (2 * a)):
        if abs(c) < 1.0:
            k = math.acos(c)
            transverse = 2 * j * math.sin(k) * math.sin(theta2 * math.pi)
            times.append(math.pi / math.hypot(2 * j * c + j_v, transverse))
    return sorted(times)


def _dqpt_check(settings: dict):
    t_max, n_points = settings["t_max"], settings["n_points"]
    tolerance = CUSP_GRID_STEPS * t_max / (n_points - 1)
    t_stars = critical_times(settings["j"], settings["j_v"], settings["theta1"],
                             settings["theta2"])
    predicted = sorted(
        t * (n + 0.5) for t in t_stars for n in range(int(t_max / t) + 1)
        if t * (n + 0.5) <= t_max
    )

    def check(path: Path):
        _, header, rows = read_csv(path)
        problems = _not_finite(rows)
        if len(t_stars) != 2 or t_stars[1] - t_stars[0] < 1e-6:
            problems.append(f"expected two distinct t*, got {t_stars}")
        cusps = rows[:, header.index("t_cusp")].tolist() if rows.size else []
        near = lambda t, others: bool(others) and min(abs(t - o) for o in others) <= tolerance
        matched = sum(near(c, predicted) for c in cusps)
        if not cusps:
            problems.append("no cusp detected")
        if matched < len(cusps):
            problems.append(f"{len(cusps) - matched} cusps farther than {tolerance} from t*(n+1/2)")
        missed = [p for p in predicted if not near(p, cusps)]
        if missed:
            problems.append(f"predicted times without a cusp: {missed}")
        facts = {"cusps_detected": len(cusps), "rows": len(cusps),
                 "match_ratio": matched / len(cusps) if cusps else 0.0}
        return problems, facts

    return check


def _revival_check(period: float, reference: float, n_points: int):
    def check(path: Path):
        meta, _, rows = read_csv(path)
        predicted = float(meta["predicted_period"])
        first = float(meta["first_revival"])
        problems = _not_finite(rows)
        if not abs(predicted - period) <= REVIVAL_PERIOD_RTOL * period:
            problems.append(f"predicted period {predicted} not within 0.2% of {period}")
        if not abs(first - reference) <= REVIVAL_FIRST_RTOL * reference:
            problems.append(f"first revival {first} not within 1% of {reference}")
        if int(meta["n_points"]) != n_points:
            problems.append(f"grid has {meta['n_points']} samples, expected {n_points}")
        facts = {"revivals_detected": len(rows), "rows": len(rows),
                 "period_ratio": first / predicted}
        return problems, facts

    return check


def _spectrum_check(n: int):
    def check(path: Path):
        _, header, rows = read_csv(path)
        problems = _not_finite(rows)
        if rows.shape[0] != n:
            problems.append(f"{rows.shape[0]} rows, expected {n}")
            return problems, {"rows": rows.shape[0]}
        col = {name: rows[:, i] for i, name in enumerate(header)}
        gap = col["gap"]
        if not np.all(gap >= 0.0):
            problems.append(f"{int(np.sum(~(gap >= 0.0)))} negative gaps")
        mismatch = float(np.max(np.abs(gap - (col["e_beta"] - col["e_alpha"]))))
        if not mismatch <= SPECTRUM_GAP_ATOL * max(1.0, float(np.max(np.abs(gap)))):
            problems.append(f"gap != e_beta - e_alpha by up to {mismatch:.3g}")
        return problems, {"rows": n}

    return check


def _scan_check(n_theta2: int):
    def check(path: Path):
        _, header, rows = read_csv(path)
        problems = _not_finite(rows)
        if rows.shape[0] != n_theta2:
            problems.append(f"{rows.shape[0]} rows, expected {n_theta2}")
            return problems, {"rows": rows.shape[0]}
        col = {name: rows[:, i] for i, name in enumerate(header)}
        average, delta_f, irreversible = col["average_work"], col["delta_f"], col["irreversible_work"]
        if not np.all(irreversible >= 0.0):
            problems.append(f"{int(np.sum(~(irreversible >= 0.0)))} negative irreversible_work")
        scale = np.maximum(1.0, np.maximum(np.abs(average), np.abs(delta_f)))
        miss = float(np.max(np.abs(average - delta_f - irreversible) / scale))
        if not miss <= SCAN_IDENTITY_RTOL:
            problems.append(f"average_work - delta_f != irreversible_work by {miss:.3g} rel")
        return problems, {"rows": n_theta2}

    return check


def _echo_check(n: int, n_points: int):
    def check(path: Path):
        data = np.load(path)
        if data.shape != (n_points, 5):
            return [f"array of shape {data.shape}, expected {(n_points, 5)}"], {}
        le, la, rate = data[:, 1], data[:, 2] + 1j * data[:, 3], data[:, 4]
        tiny = np.finfo(float).tiny
        la2 = np.abs(la) ** 2
        normal = le >= tiny
        problems = []
        # the rate is +inf only where le is exactly 0; everything else is finite
        finite = np.isfinite(data[:, :4]).all(axis=1)
        finite &= np.isfinite(rate) | ((rate == np.inf) & (le == 0.0))
        if not finite.all():
            problems.append(f"{int(np.sum(~finite))} time points with non-finite values")
        if not np.all((le >= 0.0) & (le <= 1.0 + AMPLITUDE_LOG_TOL)):
            problems.append("le outside [0, 1]")
        with np.errstate(divide="ignore"):
            log_le, log_la2 = np.log(le[normal]), np.log(la2[normal])
        if normal.any():
            worst = float(np.max(np.abs(log_la2 - log_le)))
            if not worst <= AMPLITUDE_LOG_TOL:
                problems.append(f"|la|^2 differs from le by {worst:.3g} in log")
            worst = float(np.max(np.abs(log_le + n * rate[normal]) / np.maximum(1.0, -log_le)))
            if not worst <= AMPLITUDE_LOG_TOL:
                problems.append(f"rate differs from -ln(le)/N by {worst:.3g} rel")
        # where le underflowed, the log-sum rate must put it below the floor
        under = ~normal
        below = np.all(-n * rate[under] <= math.log(tiny) + 1e-6) and np.all(la2[under] < 2 * tiny)
        if not below:
            problems.append("le underflowed where the rate says it should not")
        return problems, {"normal_points": int(normal.sum())}

    return check


def compare_with_oracle(theta1: float) -> list[str]:
    """The kernel against the determinant oracle on an N=12 ladder."""
    from creutz import LadderParams, QuenchSpec, exact_le_oracle, loschmidt_echo

    spec = QuenchSpec(LadderParams(j_h=1.0, j_v=1.0, j_d=1.0, theta=0.0, n_rungs=12),
                      theta_pre=theta1 * math.pi, theta_post=-0.25 * math.pi)
    times = np.linspace(0.0, 10.0, 21)
    series = loschmidt_echo(spec, times)
    exact = [exact_le_oracle(spec, t) for t in times]
    worst_le = float(np.max(np.abs(series.le - np.array([le for le, _ in exact]))))
    worst_la = float(np.max(np.abs(series.la - np.array([la for _, la in exact]))))
    if worst_le <= ORACLE_TOL and worst_la <= ORACLE_TOL:
        return []
    return [f"N=12 oracle: le off by {worst_le:.3g}, la off by {worst_la:.3g}"]
