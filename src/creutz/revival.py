"""Revival period prediction and detection for quenches to a critical flux.

The echo of a finite ladder quenched to a critical point revives when
the large-amplitude modes clustered around the gap-closing wavenumbers
rephase.  If the ladder size hosts those wavenumbers the period is
N/|v_g|; otherwise the cluster lives on the grid of the nearest
commensurate size and the period becomes lcm(base, N)/|v_g|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, IncommensurateAngleError, InvalidQuenchTargetError, NoRevivalError
from .model import commensurate_base, group_velocity, is_critical_flux
from .quench import LESeries, QuenchSpec

__all__ = [
    "RevivalDetection",
    "RevivalPrediction",
    "detect_revivals",
    "predict_revival",
]

#: Predictions rest on a first-order expansion of the gap around the
#: closing wavenumbers and degrade beyond a few periods.
VALIDITY_PERIODS = 5


@dataclass(frozen=True)
class RevivalPrediction:
    """Predicted first-revival time and the commensurability behind it."""

    base: int
    effective_n: int
    period: float
    commensurate: bool

    @property
    def horizon(self) -> float:
        """Time beyond which the prediction is unreliable (heuristic)."""
        return VALIDITY_PERIODS * self.period


@dataclass(frozen=True)
class RevivalDetection:
    """Revival times found in a simulated echo series.

    ``relaxation_time`` is a heuristic: the first time the echo falls
    below the detection threshold.
    """

    revival_times: np.ndarray
    first_revival: float
    mean_level: float
    threshold: float
    relaxation_time: float


def predict_revival(spec: QuenchSpec, q_max: int = 64, tol: float = 1e-9) -> RevivalPrediction:
    """First-revival period for a quench to a critical flux.

    The post-quench flux must be 0 or pi and the gap-closing angle must
    be recognizably rational (see ``commensurate_base``).
    """
    if not is_critical_flux(spec.theta_post):
        raise InvalidQuenchTargetError(
            f"revival prediction needs theta_post at a critical flux (0 or pi), got {spec.theta_post}"
        )
    base = commensurate_base(spec.params, q_max=q_max, tol=tol)
    if base is None:
        raise IncommensurateAngleError(
            f"arccos(j_v/2j)/pi not rational within tol={tol} for q <= {q_max}"
        )
    n = spec.params.n_rungs
    effective_n = math.lcm(base, n)
    velocity = group_velocity(spec.params)
    period = effective_n / velocity if velocity > 0.0 else math.inf
    if not math.isfinite(period):  # hoppings so small that 4 j^2 - j_v^2 underflows
        raise DomainError(f"group velocity {velocity:g} gives no finite revival period")
    return RevivalPrediction(
        base=base,
        effective_n=effective_n,
        period=period,
        commensurate=(n % base == 0),
    )


def detect_revivals(
    series: LESeries,
    margin: Optional[float] = None,
    window: int = 5,
    peak_fraction: float = 0.6,
) -> RevivalDetection:
    """Locate revivals as centers of excursions above a threshold.

    The long-time mean of the echo is estimated over the middle of the
    first half of the series (the grid is expected to cover about twice
    the predicted period).  The threshold is ``mean + margin``; when
    ``margin`` is not given it defaults to ``peak_fraction`` times the
    post-decay peak height above the mean, which rejects the partial
    rephasings that fall well below the full revivals.  Above-threshold
    runs separated by at most ``window`` samples are merged and each
    revival time is the weighted center of its run.  An explicit
    ``margin`` must be positive and finite.  A threshold that does not rise
    above the mean (a flat echo, or a margin below one ulp of it) finds none,
    and neither does a peak within the echo's rounding, 4 eps N_rungs peak,
    of the mean.
    """
    times = np.asarray(series.times, dtype=float)
    le = np.asarray(series.le, dtype=float)
    if times.size < 16:
        raise DomainError("series too short for revival detection")
    if window < 1:
        raise DomainError(f"window must be a positive integer, got {window}")
    if margin is not None and not 0.0 < margin < math.inf:  # also refuses nan
        raise DomainError(f"margin must be positive and finite, got {margin}")
    steps = np.diff(times)
    if steps.size and not np.allclose(steps, steps[0], rtol=1e-8, atol=0.0):
        raise DomainError("revival detection requires a uniform time grid")

    lo = int(0.1 * times.size)
    hi = int(0.4 * times.size)
    mean_level = float(le[lo:hi].mean())
    peak = float(le[lo:].max())
    floor = 4.0 * np.finfo(float).eps * series.n_rungs * peak
    if not peak - mean_level > floor:
        raise NoRevivalError(f"peak {peak:.17g} does not rise above mean_level={mean_level:.17g} "
                             f"by more than the rounding floor {floor:.3g}")
    if margin is None:
        if not 0.0 < peak_fraction < 1.0:
            raise DomainError(f"peak_fraction must lie in (0, 1), got {peak_fraction}")
        margin = peak_fraction * (peak - mean_level)
    threshold = mean_level + margin
    if not threshold > mean_level:  # a flat echo, or a margin below one ulp of the mean
        raise NoRevivalError(f"threshold {threshold:.6g} does not rise above mean_level={mean_level:.6g}")

    above = le >= threshold
    above[:lo] = False
    idx = np.flatnonzero(above)
    if idx.size == 0:
        raise NoRevivalError(
            f"no excursion above mean_level={mean_level:.6g} + margin={margin:.6g}"
        )
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > window) + 1)
    centers = []
    for run in runs:
        weight = le[run] - threshold
        total = weight.sum()
        if total > 0.0:
            centers.append(float(np.dot(times[run], weight) / total))
        else:
            centers.append(float(times[run].mean()))

    below = np.flatnonzero(le[:idx[0]] < threshold)
    relaxation = float(times[below[0]]) if below.size else float(times[0])
    return RevivalDetection(
        revival_times=np.asarray(centers),
        first_revival=centers[0],
        mean_level=mean_level,
        threshold=threshold,
        relaxation_time=relaxation,
    )
