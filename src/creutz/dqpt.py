"""Fisher zeros, critical modes, and rate-function cusps.

Zeros of the dynamical partition function form lines

    z_n(k) = [i pi (2n+1) + ln tan^2(eta_k)] / gap_k

in the complex time plane.  A line crosses the imaginary axis exactly
where a mode has tan^2(eta) = 1, i.e. oscillation amplitude one.  For
the Creutz ladder with j_h = j_d = j that condition reads

    (2 j cos k + j_v)^2 = -(2 j sin k)^2 sin(theta_pre) sin(theta_post)

which is a quadratic in cos k, solvable only when the product of the
sines is non-positive.  Each solution k* fixes a timescale
t* = 2 pi / gap(k*) and cusps of the rate function at t*(n + 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidQuenchTargetError, NoDqptError
from .model import (
    _require_equal_hoppings,
    detect_rational_angle,
    is_commensurate,
    is_critical_flux,
    mode_data,
)
from .quench import LESeries, QuenchSpec, mode_arrays

__all__ = [
    "CriticalMode",
    "FisherZeroLine",
    "critical_mode_residual",
    "detect_cusps",
    "dqpt_possible",
    "finite_size_dqpt_gate",
    "fisher_zero_lines",
    "predict_dqpt_times",
    "solve_critical_modes",
]

@dataclass(frozen=True)
class CriticalMode:
    """A wavenumber with unit oscillation amplitude and its timescale.

    ``tangent`` marks the degenerate double root that appears when the
    quench ends exactly at a critical flux; there the gap at k* closes
    and no finite cusp timescale exists (``t_star`` is inf).
    """

    k_star: float
    gap_star: float
    t_star: float
    tangent: bool = False


@dataclass(frozen=True)
class FisherZeroLine:
    """One branch of zeros, sampled over wavenumber.

    ``n_skipped`` counts sample points dropped because tan^2(eta) was
    zero or undefined there.
    """

    n: int
    k: np.ndarray
    points: np.ndarray
    n_skipped: int

    @property
    def crosses_imaginary_axis(self) -> bool:
        real = self.points.real
        if real.size == 0:
            return False
        return bool(np.any(real == 0.0) or np.any(real[:-1] * real[1:] < 0.0))


def _sin_exact(theta: float) -> float:
    """sin of a canonical angle, exactly zero at the critical fluxes 0, pi."""
    if theta == 0.0 or abs(theta) == math.pi:
        return 0.0
    return math.sin(theta)


def dqpt_possible(spec: QuenchSpec) -> bool:
    """True when the amplitude-one condition can have a solution."""
    return _sin_exact(spec.theta_pre) * _sin_exact(spec.theta_post) <= 0.0


def critical_mode_residual(spec: QuenchSpec, k: float) -> float:
    """Residual of the amplitude-one condition at wavenumber ``k``."""
    j = _require_equal_hoppings(spec.params)
    s = _sin_exact(spec.theta_pre) * _sin_exact(spec.theta_post)
    return (2.0 * j * math.cos(k) + spec.params.j_v) ** 2 + (2.0 * j * math.sin(k)) ** 2 * s


def solve_critical_modes(spec: QuenchSpec) -> list[CriticalMode]:
    """All wavenumbers in (0, pi) with oscillation amplitude one.

    Substituting c = cos k reduces the condition to a quadratic in c;
    closed-form roots are polished with one Newton step in k.  Each
    returned mode also exists mirrored at 2 pi - k*.  The list is empty
    when the quench cannot support a transition.
    """
    j = _require_equal_hoppings(spec.params)
    jv = spec.params.j_v
    s = _sin_exact(spec.theta_pre) * _sin_exact(spec.theta_post)
    if s > 0.0:
        return []
    if s == 0.0:
        # One flux sits exactly at a critical value: double root at the
        # gap-closing wavenumber of the infinite system.  The timescale
        # stays finite when only the initial flux is critical; it
        # diverges when the quench ends at a critical flux.
        if jv >= 2.0 * j:
            return []
        k_star = math.acos(-jv / (2.0 * j))
        if _sin_exact(spec.theta_post) == 0.0:
            gap_star, t_star = 0.0, math.inf
        else:
            gap_star = float(mode_data(spec.post, k_star).gap)
            t_star = 2.0 * math.pi / gap_star
        return [CriticalMode(k_star=k_star, gap_star=gap_star, t_star=t_star, tangent=True)]

    # (2jc + jv)^2 + 4j^2 (1 - c^2) s = 0
    a = 4.0 * j * j * (1.0 - s)
    b = 4.0 * j * jv
    c0 = jv * jv + 4.0 * j * j * s
    disc = b * b - 4.0 * a * c0
    if disc < 0.0:
        return []
    sqrt_disc = math.sqrt(disc)
    tangent = disc == 0.0
    roots = {(-b + sqrt_disc) / (2.0 * a)} if tangent else {
        (-b + sqrt_disc) / (2.0 * a),
        (-b - sqrt_disc) / (2.0 * a),
    }
    modes = []
    for c in sorted(roots, reverse=True):
        if abs(c) >= 1.0:
            continue
        k_star = math.acos(c)
        k_star = _newton_polish(spec, j, jv, s, k_star)
        gap_star = float(mode_data(spec.post, k_star).gap)
        modes.append(
            CriticalMode(
                k_star=k_star,
                gap_star=gap_star,
                t_star=2.0 * math.pi / gap_star,
                tangent=tangent,
            )
        )
    return modes


def _newton_polish(spec: QuenchSpec, j: float, jv: float, s: float, k: float) -> float:
    f = critical_mode_residual(spec, k)
    df = (
        -4.0 * j * math.sin(k) * (2.0 * j * math.cos(k) + jv)
        + 8.0 * j * j * math.sin(k) * math.cos(k) * s
    )
    if df != 0.0:
        step = f / df
        if abs(step) < 1e-6:
            k = k - step
    return k


def predict_dqpt_times(spec: QuenchSpec, t_max: float) -> list[float]:
    """Merged, sorted cusp times t*(n + 1/2) up to ``t_max``.

    Tangent modes carry no finite timescale and contribute nothing.
    Raises when the quench has no critical mode at all.
    """
    modes = solve_critical_modes(spec)
    if not modes:
        raise NoDqptError("quench admits no critical mode; no transition times exist")
    times = []
    for mode in modes:
        if not math.isfinite(mode.t_star):
            continue
        n_max = int(t_max / mode.t_star + 0.5)
        times.extend(
            mode.t_star * (n + 0.5)
            for n in range(n_max + 1)
            if mode.t_star * (n + 0.5) <= t_max
        )
    return sorted(times)


def fisher_zero_lines(
    spec: QuenchSpec, n_range: tuple[int, int] = (0, 3), k_samples: int = 512
) -> list[FisherZeroLine]:
    """Sampled zero lines for branch indices n_range[0]..n_range[1].

    Wavenumbers are sampled strictly inside (0, pi); the mirror half of
    the zone traces the same lines.  Points where tan^2(eta) is zero or
    undefined are omitted and counted per line.
    """
    if n_range[0] > n_range[1]:
        raise DomainError(f"empty branch range {n_range}")
    if k_samples < 2:
        raise DomainError(f"k_samples must be >= 2, got {k_samples}")
    ks = np.linspace(0.0, math.pi, k_samples + 2)[1:-1]
    _, _, cos2, gap, _, _ = mode_arrays(spec, ks)
    sin2 = 1.0 - cos2
    with np.errstate(divide="ignore", invalid="ignore"):
        tan2 = sin2 / cos2
        log_tan2 = np.log(tan2)
    valid = np.isfinite(log_tan2) & (gap > 0.0)
    n_skipped = int(np.count_nonzero(~valid))
    lines = []
    for n in range(n_range[0], n_range[1] + 1):
        z = (1j * math.pi * (2 * n + 1) + log_tan2[valid]) / gap[valid]
        lines.append(
            FisherZeroLine(n=n, k=ks[valid], points=z, n_skipped=n_skipped)
        )
    return lines


def detect_cusps(series: LESeries, sensitivity: float = 20.0) -> list[float]:
    """Times where the rate function bends anomalously fast.

    Flags samples whose absolute second difference exceeds
    ``sensitivity`` times the median absolute second difference, merges
    neighbouring flags, and reports the strongest sample of each group.
    Infinite rate values (exact echo zeros) are always flagged.
    ``sensitivity`` must be positive and finite.
    """
    if not 0.0 < sensitivity < math.inf:  # also refuses nan
        raise DomainError(f"sensitivity must be positive and finite, got {sensitivity}")
    times = np.asarray(series.times, dtype=float)
    rate = np.asarray(series.rate, dtype=float)
    if times.size < 8:
        return []
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=0.0):
        raise DomainError("cusp detection requires a uniform time grid")

    with np.errstate(invalid="ignore"):
        d2 = np.abs(np.diff(rate, 2))
    finite = d2[np.isfinite(d2)]
    if finite.size == 0:
        return []
    median = float(np.median(finite))
    hits = np.flatnonzero(~np.isfinite(d2) | (d2 > sensitivity * median)) + 1
    hits = hits[(hits >= 2) & (hits <= times.size - 3)]
    if hits.size == 0:
        return []
    groups = np.split(hits, np.flatnonzero(np.diff(hits) > 5) + 1)
    cusps = []
    for group in groups:
        scores = d2[group - 1]
        scores = np.where(np.isfinite(scores), scores, np.inf)
        cusps.append(float(times[group[np.argmax(scores)]]))
    return cusps


def finite_size_dqpt_gate(spec: QuenchSpec) -> bool:
    """Whether a finite ladder quenched to a critical flux can show cusps.

    True exactly when the gap-closing wavenumber lies on the mode grid,
    decided by integer arithmetic on the rational gap-closing angle.
    """
    if not is_critical_flux(spec.theta_post):
        raise InvalidQuenchTargetError(
            f"gate defined only for quenches to a critical flux, got theta_post={spec.theta_post}"
        )
    angle = detect_rational_angle(spec.params)
    if angle is None:
        return False
    return is_commensurate(angle, spec.params.n_rungs)
