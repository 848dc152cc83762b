"""Work statistics of the sudden flux quench at zero temperature.

The quench conserves the wavenumber, so each mode independently either
stays in the lower band (weight cos^2 eta) or is excited across the
post-quench gap (weight sin^2 eta).  Average work, ground-state energy
difference, and irreversible work follow as mode sums; for small
ladders the full work distribution is the convolution of the per-mode
two-outcome distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import LadderParams, _mode_data_at, allowed_modes, canonical_angle, mode_data
from .quench import QuenchSpec, _paired_sum, mode_arrays

__all__ = [
    "WorkDistribution",
    "WorkStats",
    "scan_theta2",
    "work_distribution",
    "work_stats",
]

DISTRIBUTION_MAX_RUNGS = 16
MERGE_TOL = 1e-9
# Bytes of one float64 (theta2 x modes) temporary in ``scan_theta2``.
_CHUNK_BYTES = 256 << 10


@dataclass(frozen=True)
class WorkStats:
    """Average work, free-energy difference, and irreversible work."""

    average_work: float
    delta_f: float
    irreversible_work: float
    n_rungs: int


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete work distribution: outcomes ``works`` with ``probabilities``."""

    works: np.ndarray
    probabilities: np.ndarray

    def moment(self, order: int) -> float:
        return float(np.sum(self.works**order * self.probabilities))

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def variance(self) -> float:
        return self.moment(2) - self.mean**2


def work_stats(spec: QuenchSpec) -> WorkStats:
    """Quench work statistics from mode sums.

    average_work = sum_k [ea_post cos^2(eta) + eb_post sin^2(eta) - ea_pre],
    delta_f = sum_k (ea_post - ea_pre) is the ground-state energy
    difference, and
    irreversible_work = sum_k sin^2(eta) gap_post, each summand
    non-negative.  The one-angle case of ``scan_theta2``.
    """
    return scan_theta2(spec.params, spec.theta_pre, [spec.theta_post])[0]


def work_distribution(spec: QuenchSpec) -> WorkDistribution:
    """Full work distribution by convolution over modes.

    Each mode contributes two outcomes; outcomes closer than
    ``MERGE_TOL`` in work are merged after every convolution step.
    Limited to small ladders because the support can grow as 2^N.
    """
    n = spec.params.n_rungs
    if n > DISTRIBUTION_MAX_RUNGS:
        raise DomainError(
            f"work distribution limited to n_rungs <= {DISTRIBUTION_MAX_RUNGS}, got {n}"
        )
    _, _, cos2, gap_post, ea_pre, ea_post = mode_arrays(spec)
    eb_post = ea_post + gap_post
    works = np.array([0.0])
    probs = np.array([1.0])
    for i in range(n):
        branch_works = []
        branch_probs = []
        if cos2[i] > 0.0:
            branch_works.append(works + (ea_post[i] - ea_pre[i]))
            branch_probs.append(probs * cos2[i])
        if cos2[i] < 1.0:
            branch_works.append(works + (eb_post[i] - ea_pre[i]))
            branch_probs.append(probs * (1.0 - cos2[i]))
        works = np.concatenate(branch_works)
        probs = np.concatenate(branch_probs)
        works, probs = _merge(works, probs)
    return WorkDistribution(works=works, probabilities=probs)


def _merge(works: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(works)
    works = works[order]
    probs = probs[order]
    fresh = np.empty(works.size, dtype=bool)
    fresh[0] = True
    np.greater(np.diff(works), MERGE_TOL, out=fresh[1:])
    groups = np.cumsum(fresh) - 1
    merged_w = works[fresh]
    merged_p = np.bincount(groups, weights=probs)
    return merged_w, merged_p


def scan_theta2(
    params: LadderParams, theta1: float, theta2_grid
) -> list[WorkStats]:
    """Work statistics for a sweep of post-quench angles at fixed theta1.

    One (theta2 x k) evaluation on the modes j = 0..N//2: modes k and
    2 pi - k share gap, lower-band energy and cos^2 eta, so paired modes
    count twice (``_paired_sum``).  The pre-quench table is built once;
    the post-quench table is ``mode_data`` with a column of angles
    against the row of k, in chunks of about ``_CHUNK_BYTES`` per
    float64 temporary.  Each row is reduced with a pairwise ``np.sum``.
    """
    n = params.n_rungs
    k = allowed_modes(n)[: n // 2 + 1]
    pre = mode_data(params.with_theta(theta1), k)
    theta2 = np.array([canonical_angle(t) for t in np.asarray(theta2_grid, dtype=float)])
    sums = np.empty((3, theta2.size))
    rows = max(1, _CHUNK_BYTES // (8 * k.size))
    for lo in range(0, theta2.size, rows):
        post = _mode_data_at(params, theta2[lo : lo + rows, None], k)
        cos2 = np.cos(0.5 * (pre.gamma - post.gamma)) ** 2
        sin2 = 1.0 - cos2
        eb_post = post.e_alpha + post.gap
        chunk = sums[:, lo : lo + rows]
        chunk[0] = _paired_sum(post.e_alpha * cos2 + eb_post * sin2 - pre.e_alpha, n)
        chunk[1] = _paired_sum(post.e_alpha - pre.e_alpha, n)
        chunk[2] = _paired_sum(sin2 * post.gap, n)
    return [
        WorkStats(average_work=a, delta_f=f, irreversible_work=w, n_rungs=n)
        for a, f, w in sums.T.tolist()
    ]
