"""Fisher zeros, critical modes, and rate-function cusps.

Zeros of the dynamical partition function form lines

    z_n(k) = [i pi (2n+1) + ln tan^2(eta_k)] / gap_k

in the complex time plane.  A line crosses the imaginary axis exactly
where a mode has tan^2(eta) = 1, i.e. oscillation amplitude one.  For
the Creutz ladder with j_h = j_d = j that condition reads

    (2 j cos k + j_v)^2 = -(2 j sin k)^2 sin(theta_pre) sin(theta_post)

solvable only when the product s of the sines is non-positive.  It is
then cos(k +/- phi) = r with phi = atan sqrt(-s) and
r = -j_v / (2 j sqrt(1 - s)): with alpha = acos r the roots in (0, pi)
are alpha - phi and alpha + phi, the latter reflected to
2 pi - (alpha + phi) past pi.  There is none when r < -1, and one
tangent double root when phi = 0 or r = -1.  Each solution k* fixes a
timescale t* = 2 pi / gap(k*) and cusps of the rate function at
t*(n + 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidQuenchTargetError, NoDqptError
from .model import _require_equal_hoppings, commensurate_base, is_critical_flux
from .quench import LESeries, QuenchSpec, mode_arrays

__all__ = [
    "CriticalMode",
    "FisherZeroLine",
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

    ``tangent`` marks the degenerate double root that appears when
    either flux is critical or when r = -1 (see the module docstring).
    When the quench ends at a critical flux the gap at k* closes and no
    finite cusp timescale exists (``t_star`` is inf).
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


def _sine_product(spec: QuenchSpec) -> float:
    """sin(theta_pre) sin(theta_post), exactly 0 when ``is_critical_flux`` holds for either."""
    if is_critical_flux(spec.theta_pre) or is_critical_flux(spec.theta_post):
        return 0.0
    return math.sin(spec.theta_pre) * math.sin(spec.theta_post)


def dqpt_possible(spec: QuenchSpec) -> bool:
    """True when the amplitude-one condition can have a solution."""
    return _sine_product(spec) <= 0.0


def solve_critical_modes(spec: QuenchSpec) -> list[CriticalMode]:
    """All wavenumbers in (0, pi) with oscillation amplitude one, ascending.

    The closed form of the module docstring.  Each returned mode also
    exists mirrored at 2 pi - k*.  The list is empty when the quench
    cannot support a transition.
    """
    j = _require_equal_hoppings(spec.params)
    s = _sine_product(spec)
    scale = 2.0 * j * math.sqrt(1.0 - s)  # -j_v / r
    # r < -1; also j <= 0, which j_h == j_d (to 1e-12) admits only for j_d <= 1e-12
    if s > 0.0 or scale < spec.params.j_v:
        return []
    phi = math.atan(math.sqrt(-s))
    r = -spec.params.j_v / scale
    alpha = math.acos(r)  # above pi/2 > phi as r < 0, so every root is positive
    tangent = phi == 0.0 or r == -1.0
    roots = [alpha - phi] if tangent else [alpha - phi, alpha + phi]
    closed = is_critical_flux(spec.theta_post)  # the gap closes at k*: no finite timescale
    modes = []
    for k_star in roots:
        if k_star > math.pi:  # exact, by Sterbenz's lemma
            k_star = 2.0 * math.pi - k_star
        if k_star < math.pi:
            gap_star = 0.0 if closed else float(mode_arrays(spec, k_star).gap_post)
            t_star = 2.0 * math.pi / gap_star if gap_star > 0.0 else math.inf
            modes.append(CriticalMode(k_star, gap_star, t_star, tangent))
    return modes


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
    # np.median's value without its first-call import of numpy.ma (17 ms or more)
    half = finite.size // 2
    part = np.partition(finite, [half - 1, half] if finite.size % 2 == 0 else half)
    median = float(part[half] if finite.size % 2 else (part[half - 1] + part[half]) / 2)
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


def finite_size_dqpt_gate(spec: QuenchSpec, q_max: int = 64, tol: float = 1e-9) -> bool:
    """Whether a finite ladder quenched to a critical flux can show cusps.

    True exactly when the ladder size is a multiple of
    ``commensurate_base(spec.params, q_max, tol)``, i.e. when the
    gap-closing wavenumbers lie on the mode grid; False when the angle
    is incommensurate at this resolution.
    """
    if not is_critical_flux(spec.theta_post):
        raise InvalidQuenchTargetError(
            f"gate defined only for quenches to a critical flux, got theta_post={spec.theta_post}"
        )
    base = commensurate_base(spec.params, q_max=q_max, tol=tol)
    return base is not None and spec.params.n_rungs % base == 0
