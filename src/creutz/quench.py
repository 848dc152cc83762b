"""Loschmidt amplitude and echo after a sudden flux quench.

The flux is changed instantaneously from ``theta_pre`` to ``theta_post``
with the system prepared in the lower-band-filled state of the
pre-quench ladder.  Because the quench conserves the wavenumber, the
echo factorizes over modes:

    le(t) = prod_k [1 - A_k sin^2(gap_k t / 2)]

with ``gap_k`` the post-quench band gap and ``A_k`` an oscillation
amplitude fixed by the rotation between pre- and post-quench
eigenbases.  An exact determinant overlap on the full single-particle
matrix provides an independent check for ladders of up to 128 rungs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .model import LadderParams, allowed_modes, canonical_angle, mode_data

__all__ = [
    "LESeries",
    "ModeArrays",
    "QuenchSpec",
    "exact_le_oracle",
    "loschmidt_echo",
    "mode_arrays",
]

ORACLE_MAX_RUNGS = 128
# Bytes of one float64 (times x modes) temporary in ``loschmidt_echo``.
_CHUNK_BYTES = 4 << 20
# ``loschmidt_echo`` starts at most one thread per this many rows and per
# this many (rows x modes) elements of a block: each thread also pays for
# every block's start row and about 20 numpy calls per block.
_PIECE_ROWS = 8
_PIECE_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class QuenchSpec:
    """A sudden flux quench: shared ladder parameters plus the two angles."""

    params: LadderParams
    theta_pre: float
    theta_post: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_pre", canonical_angle(self.theta_pre))
        object.__setattr__(self, "theta_post", canonical_angle(self.theta_post))

    @property
    def pre(self) -> LadderParams:
        return self.params.with_theta(self.theta_pre)

    @property
    def post(self) -> LadderParams:
        return self.params.with_theta(self.theta_post)


@dataclass(frozen=True)
class LESeries:
    """Echo, amplitude, and rate function sampled on a time grid.

    ``rate`` is -ln(le)/N with N the number of rungs; it is computed
    from a log-sum over modes so it stays finite even where ``le``
    underflows.  An exact zero of a mode factor shows up as +inf.
    ``la`` is None when the series was computed without the complex
    amplitude; ``le`` and ``rate`` are the same either way, and skipping
    ``la`` makes the kernel about 2x faster (see ``loschmidt_echo``).
    """

    times: np.ndarray
    le: np.ndarray
    la: Optional[np.ndarray]
    rate: np.ndarray
    n_rungs: int


class ModeArrays(NamedTuple):
    """Per-mode quench data, one entry per wavenumber ``k``.

    eta is half the pre- minus post-quench rotation angle and
    ``amplitude`` = sin^2(2 eta); ``ea_*`` are lower-band energies.
    """

    k: np.ndarray
    amplitude: np.ndarray
    cos2_eta: np.ndarray
    gap_post: np.ndarray
    ea_pre: np.ndarray
    ea_post: np.ndarray


def mode_arrays(spec: QuenchSpec, ks=None) -> ModeArrays:
    """Vectorized per-mode quench data at ``ks`` (default: the ladder's mode grid)."""
    if ks is None:
        ks = allowed_modes(spec.params.n_rungs)
    pre = mode_data(spec.pre, ks)
    post = mode_data(spec.post, ks)
    two_eta = pre.gamma - post.gamma
    return ModeArrays(
        k=post.k,
        amplitude=np.sin(two_eta) ** 2,
        cos2_eta=np.cos(0.5 * two_eta) ** 2,
        gap_post=post.gap,
        ea_pre=pre.e_alpha,
        ea_post=post.e_alpha,
    )


def _paired_sum(x: np.ndarray, n: int) -> np.ndarray:
    """Row sums over all ``n`` modes from the columns j = 0..n//2 of ``x``.

    Modes j and n - j carry the same factor, so the columns strictly
    between k = 0 and k = pi count twice; k = pi (even ``n``) counts once.
    """
    total = x[:, 0] + 2.0 * np.sum(x[:, 1 : (n + 1) // 2], axis=1)
    if n % 2 == 0:
        total += x[:, -1]
    return total


def _uniform_step(times: np.ndarray) -> Optional[float]:
    """Step of ``times`` when it is a uniform grid, else None.

    A grid of at least two points is uniform when every time lies within
    one ulp of its largest magnitude from t[0] + i * step, with
    step = (t[-1] - t[0]) / (T - 1).  Every ``np.linspace`` and
    ``np.arange`` grid of the CLI passes; a point moved by 1e-9 does not.
    """
    if times.size < 2:
        return None
    step = (times[-1] - times[0]) / (times.size - 1)
    off = np.arange(times.size, dtype=float)
    off *= step
    off += times[0]
    off -= times
    return float(step) if np.abs(off, out=off).max() <= np.spacing(times.max()) else None


# The cgroup CPU quota as "quota period" (v2), or as quota and period
# files (v1); the first of these that can be read holds it.
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def _read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _cpu_quota() -> float:
    """CPUs' worth of time the cgroup CPU quota grants; inf without a quota.

    "max" (v2), -1 (v1) and a file that is missing, unreadable or
    malformed all mean no quota.
    """
    for paths in _CPU_QUOTA_FILES:
        try:
            fields = " ".join(_read_text(path) for path in paths).split()
        except OSError:
            continue
        try:
            quota, period = int(fields[0]), int(fields[1])
        except (IndexError, ValueError):
            return math.inf
        return quota / period if quota > 0 and period > 0 else math.inf
    return math.inf


def _worker_count() -> int:
    """CPUs in this process's affinity set (``os.cpu_count`` without one),
    at most the whole CPUs that cover the cgroup CPU quota.

    More threads than the quota allows only queue for CPU time.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota == math.inf else max(1, min(cpus, math.ceil(quota)))


def _run_pieces(run, pieces) -> None:
    """``run(*piece)`` for each of ``pieces``, the first in this thread and
    the others on threads; the first error of any piece is raised here
    once all pieces have stopped."""
    errors = []

    def guarded(*piece) -> None:
        try:
            run(*piece)
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=piece) for piece in pieces[1:]]
    for thread in threads:
        thread.start()
    guarded(*pieces[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def loschmidt_echo(spec: QuenchSpec, times, include_la: bool = True) -> LESeries:
    """Echo, amplitude, and rate function on the given time grid.

    Modes k and 2 pi - k share amplitude, mixing angle and gap (eps_q -
    eps_p is odd in k, every other term even), so only the modes with
    0 <= k <= pi are evaluated and paired modes are counted twice.  The
    echo factor is 1 - A s^2 with s = sin(gap t / 2), s^2 clamped at 1.
    The amplitude needs no complex exp or log: with c = cos(gap t / 2),
    each mode's log|cos^2 eta + sin^2 eta e^{-i gap t}| is half the log
    of its echo factor and its argument is
    atan2(-2 sin^2 eta s c, cos^2 eta + sin^2 eta (1 - 2 s^2)); the
    lower-band phase sum_k ea_post t is t * sum(ea_post), one number per
    time.  ``le`` and ``rate`` are therefore the same bits with or without
    ``include_la``.

    On a uniform grid (``_uniform_step``) time runs in blocks of B rows,
    t = t_I + tau_j with t_I the block's first time and tau_j = j * step,
    and s and c come from angle addition over sin/cos of (gap t_I / 2),
    one row per block, and of (gap tau_j / 2), one table for all blocks:
    ``sin`` and ``cos`` run on T/B + B rows instead of T.  Nothing is
    carried from block to block, so the rounding does not grow along the
    grid.  Modes with amplitude exactly 1 keep the direct ``sin`` and
    ``cos``: their factor is exactly 0 where s^2 rounds to 1, which gives
    ``rate = +inf`` on every grid.  B = min(floor(sqrt(T)),
    ``_CHUNK_BYTES`` / (16 M)) for M modes, so the four (B x M) tables of
    the echo hold 2 ``_CHUNK_BYTES``; other grids run in chunks of
    ``_CHUNK_BYTES`` per (times x modes) temporary.

    The rows of each block (or chunk) are split into one contiguous piece
    per CPU of the process's affinity set, pieces differing by at most one
    row, and the pieces run on threads (numpy releases the GIL); a grid
    of one block runs in the calling thread.  A piece reads its block's
    start row and its own rows of the offset tables, so every element and
    row sum takes the same operations for any split: the results are the
    same bits for any number of CPUs.  Each thread computes the sin/cos
    start row of every block itself and makes about 20 numpy calls per
    block, so there is at most one thread per ``_PIECE_ROWS`` (8) rows
    and per ``_PIECE_ELEMENTS`` (2^14) elements of a block, and a cgroup
    CPU quota below the affinity set caps the count too
    (``_worker_count``).  The measured costs of these choices are in
    docs/formats.md, under ``le``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a one-dimensional array")
    if times.size and (not np.all(np.isfinite(times)) or times.min() < 0.0):
        raise DomainError("times must be non-negative and finite")

    _, amplitude, cos2, gap_post, _, ea_post = mode_arrays(spec)
    lower_band = float(np.sum(ea_post))
    t_max = float(times.max()) if times.size else 0.0
    if not math.isfinite(t_max * (float(gap_post.max()) + abs(lower_band))):
        raise DomainError(f"times up to {t_max:g} overflow the mode phases gap * t")
    n = spec.params.n_rungs
    half = slice(0, n // 2 + 1)
    amplitude, cos2, half_gap = amplitude[half], cos2[half], 0.5 * gap_post[half]
    sin2 = 1.0 - cos2
    minus_two_sin2 = -2.0 * sin2
    log_le = np.empty(times.size)
    arg = np.empty(times.size) if include_la else None
    step = _uniform_step(times)
    if step is None:
        rows = max(1, _CHUNK_BYTES // (8 * half_gap.size))
    else:
        rows = max(1, min(math.isqrt(times.size), _CHUNK_BYTES // (16 * half_gap.size)))
        offsets = np.multiply.outer(step * np.arange(rows), half_gap)
        sin_off, cos_off = np.sin(offsets), np.cos(offsets, out=offsets)
        unit = np.flatnonzero(amplitude == 1.0)
    span = min(rows, times.size)
    workers = 1
    if times.size > rows:
        workers = max(1, min(_worker_count(), span // _PIECE_ROWS,
                             span * half_gap.size // _PIECE_ELEMENTS))

    def run(first: int, stop: int) -> None:
        # rows [first, stop) of every block; each element and row sum takes
        # the same operations as with one piece per block
        work = np.empty((3 if include_la else 2, stop - first, half_gap.size))
        with np.errstate(divide="ignore"):
            for lo in range(0, times.size, rows):
                a, b = lo + first, min(lo + stop, times.size)
                if a >= b:
                    continue
                t = times[a:b, None]
                s, f = work[0, : t.size], work[1, : t.size]
                c = work[2, : t.size] if arg is not None else None
                if step is None:
                    np.multiply(half_gap, t, out=f)
                    np.sin(f, out=s)
                    if c is not None:
                        np.cos(f, out=c)
                else:
                    start = half_gap * times[lo]
                    sin_i = np.sin(start)
                    cos_i = np.cos(start, out=start)
                    sin_j, cos_j = sin_off[a - lo : b - lo], cos_off[a - lo : b - lo]
                    np.multiply(cos_j, sin_i, out=s)
                    s += np.multiply(sin_j, cos_i, out=f)  # sin(start + offset)
                    if c is not None:
                        np.multiply(cos_j, cos_i, out=c)
                        c -= np.multiply(sin_j, sin_i, out=f)  # cos(start + offset)
                    if unit.size:
                        phase = half_gap[unit] * t
                        s[:, unit] = np.sin(phase)
                        if c is not None:
                            c[:, unit] = np.cos(phase)
                if c is not None:
                    c *= s
                    c *= minus_two_sin2  # -2 sin^2(eta) s c
                np.square(s, out=s)
                np.minimum(s, 1.0, out=s)
                np.multiply(amplitude, s, out=f)
                np.subtract(1.0, f, out=f)  # echo factors 1 - A s^2
                log_le[a:b] = _paired_sum(np.log(f, out=f), n)
                if c is not None:
                    np.multiply(-2.0, s, out=f)
                    f += 1.0
                    f *= sin2
                    f += cos2  # cos^2(eta) + sin^2(eta) (1 - 2 s^2)
                    arg[a:b] = _paired_sum(np.arctan2(c, f, out=c), n)

    _run_pieces(run, [(span * i // workers, span * (i + 1) // workers) for i in range(workers)])
    le = np.exp(log_le)
    rate = np.where(np.isneginf(log_le), np.inf, -log_le / n)
    la = None
    if arg is not None:
        la = np.exp(0.5 * log_le + 1j * (arg - times * lower_band))
    return LESeries(times=times, le=le, la=la, rate=rate, n_rungs=n)


def _single_particle_matrix(params: LadderParams) -> np.ndarray:
    """Full 2N x 2N hopping matrix of the ladder, shifted by -j_v.

    Basis ordering: upper-leg sites 0..N-1, then lower-leg sites.
    """
    n = params.n_rungs
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    fwd_q = -params.j_h * np.exp(-1j * params.theta)
    fwd_p = -params.j_h * np.exp(1j * params.theta)
    for m in range(n):
        nxt = (m + 1) % n
        h[nxt, m] += fwd_q
        h[m, nxt] += np.conj(fwd_q)
        h[n + nxt, n + m] += fwd_p
        h[n + m, n + nxt] += np.conj(fwd_p)
        h[n + nxt, m] += -params.j_d
        h[m, n + nxt] += -params.j_d
        h[nxt, n + m] += -params.j_d
        h[n + m, nxt] += -params.j_d
        h[m, n + m] += -params.j_v
        h[n + m, m] += -params.j_v
    h -= params.j_v * np.eye(2 * n)
    return h


def exact_le_oracle(spec: QuenchSpec, t: float) -> tuple[float, complex]:
    """Echo and amplitude from an exact determinant overlap.

    Fills the N lowest orbitals of the pre-quench single-particle
    matrix, evolves with the post-quench matrix, and returns
    (|det|^2, det) of the occupied-orbital overlap.  Limited to
    ``ORACLE_MAX_RUNGS`` (about 60 ms per call at 128 rungs); the
    mode-product formula must agree exactly.
    """
    n = spec.params.n_rungs
    if n > ORACLE_MAX_RUNGS:
        raise DomainError(
            f"oracle limited to n_rungs <= {ORACLE_MAX_RUNGS}, got {n}"
        )
    t = float(t)
    h_pre = _single_particle_matrix(spec.pre)
    h_post = _single_particle_matrix(spec.post)
    _, v_pre = np.linalg.eigh(h_pre)
    w_post, v_post = np.linalg.eigh(h_post)
    occupied = v_pre[:, :n]
    evolution = (v_post * np.exp(-1j * w_post * t)) @ v_post.conj().T
    la = complex(np.linalg.det(occupied.conj().T @ evolution @ occupied))
    return abs(la) ** 2, la
