"""Work statistics of the sudden flux quench at zero temperature.

The quench conserves the wavenumber, so each mode independently either
stays in the lower band (weight cos^2 eta) or is excited across the
post-quench gap (weight sin^2 eta).  Average work, ground-state energy
difference, and irreversible work follow as mode sums; for small
ladders the full work distribution is the convolution of the per-mode
two-outcome distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quench
from .errors import DomainError
from .model import LadderParams, allowed_modes, canonical_angle
from .quench import QuenchSpec, mode_arrays

__all__ = [
    "WorkDistribution",
    "WorkStats",
    "scan_theta2",
    "work_distribution",
    "work_stats",
]

DISTRIBUTION_MAX_RUNGS = 16
MERGE_TOL = 1e-9
# Bytes of one float64 (theta2 x modes) buffer in ``scan_theta2``.
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
    difference, and irreversible_work = sum_k sin^2(eta) gap_post, each
    summand non-negative.  The one-angle case of ``scan_theta2``, which
    evaluates these sums without angles (see there).
    """
    sums = scan_theta2(spec.params, spec.theta_pre, [spec.theta_post])[:, 0]
    return WorkStats(*sums.tolist(), spec.params.n_rungs)


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
    _, _, cos2, gap_post, ea_pre, ea_post = mode_arrays(spec, allowed_modes(n))
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


def scan_theta2(params: LadderParams, theta1: float, theta2_grid) -> np.ndarray:
    """Work statistics for a sweep of post-quench angles at fixed theta1:
    average_work, delta_f and irreversible_work, a (3, len(theta2_grid)) array.

    One (theta2 x k) evaluation on the modes 0 < k < pi, each counted twice,
    with the u, v, q, a and h of ``mode_arrays`` and cos gamma1 = a1 / h1
    (1 where h1 = 0).  Per mode, dc = v (cos theta2 - cos theta1),
    dh = h2 - h1 and lin = cos gamma1 (a2 - a1) give average_work =
    sum (dc - lin), delta_f = sum (dc - dh) and irreversible_work =
    sum (dh - lin), one sqrt per element.  At k = 0 and k = pi, a = 0 and
    only dc survives: it adds -2 j_h (cos theta2 - cos theta1) for odd N
    (k = 0 alone) and cancels for even N.  Where q^2 + a1 a2 > 0 an
    irreversible term is q^2 (a2 - a1)^2 / (h1 (h1 h2 + q^2 + a1 a2)),
    non-negative and exactly 0 at a2 = a1, so theta2 = pi - theta1 costs
    no irreversible work; elsewhere it is max(dh - lin, 0).  At
    theta2 = theta1, every sum is exactly 0.

    Chunks of theta2 rows go through six float64 buffers of about
    ``_CHUNK_BYTES``, in one contiguous run of chunks per CPU on threads
    (``quench._pieces``, ``quench._run_pieces``); a grid of one chunk
    runs in the calling thread.  Each row is an elementwise pass and its
    own row sums, so the bits are the same for any number of CPUs.
    """
    n = params.n_rungs
    k = allowed_modes(n)[1 : (n + 1) // 2]  # 0 < k < pi
    theta1 = canonical_angle(theta1)
    u, v = 2.0 * params.j_h * np.sin(k), -2.0 * params.j_h * np.cos(k)
    q2 = (2.0 * params.j_d * np.cos(k) + params.j_v) ** 2
    a1 = u * math.sin(theta1)
    h1 = np.sqrt(q2 + a1 * a1)
    c1 = np.divide(a1, h1, out=np.ones_like(h1), where=h1 > 0.0)  # cos gamma1
    theta2 = [canonical_angle(t) for t in np.asarray(theta2_grid, dtype=float)]
    sin_theta2 = np.array([math.sin(t) for t in theta2])[:, None]
    dcos = np.array([math.cos(t) - math.cos(theta1) for t in theta2])[:, None]
    ends = -2.0 * params.j_h * (n % 2) * dcos[:, 0]  # the dc of k = 0 and k = pi
    sums = np.empty((3, len(theta2)))
    rows = max(1, _CHUNK_BYTES // (8 * max(1, k.size)))

    def run(lo: int, hi: int) -> None:
        buffers = np.empty((6, rows, k.size))
        mask = np.empty((rows, k.size), dtype=bool)
        for r0 in range(lo, hi, rows):
            r1 = min(r0 + rows, hi)
            # a buffer is reused once its value is spent: a2 takes dh, h2 the
            # denominator and then dc, cross the numerator q^2 d^2
            a2, h2, d, cross, lin, x = buffers[:, : r1 - r0]
            np.multiply(u, sin_theta2[r0:r1], out=a2)
            np.sqrt(np.add(q2, np.multiply(a2, a2, out=h2), out=h2), out=h2)
            np.subtract(a2, a1, out=d)
            np.add(q2, np.multiply(a1, a2, out=cross), out=cross)
            dh = np.subtract(h2, h1, out=a2)
            np.multiply(c1, d, out=lin)
            # max(dh - lin, 0), and where q^2 + a1 a2 > 0 (so h1 > 0) the same
            # term without its cancellation
            np.maximum(np.subtract(dh, lin, out=x), 0.0, out=x)
            np.multiply(h1, np.add(np.multiply(h1, h2, out=h2), cross, out=h2), out=h2)
            positive = np.greater(cross, 0.0, out=mask[: r1 - r0])
            np.multiply(np.multiply(q2, d, out=cross), d, out=cross)
            np.divide(cross, h2, out=x, where=positive)
            sums[2, r0:r1] = 2.0 * np.sum(x, axis=-1)
            dc = np.multiply(v, dcos[r0:r1], out=h2)
            sums[0, r0:r1] = 2.0 * np.sum(np.subtract(dc, lin, out=x), axis=-1) + ends[r0:r1]
            sums[1, r0:r1] = 2.0 * np.sum(np.subtract(dc, dh, out=x), axis=-1) + ends[r0:r1]

    quench._run_pieces(run, quench._pieces(len(theta2), rows, quench._worker_count()))
    return sums
