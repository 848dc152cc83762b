"""Loschmidt amplitude and echo after a sudden flux quench.

The flux is changed instantaneously from ``theta_pre`` to ``theta_post``
with the system prepared in the lower-band-filled state of the
pre-quench ladder.  Because the quench conserves the wavenumber, the
echo factorizes over modes:

    le(t) = prod_k [1 - A_k sin^2(gap_k t / 2)]

with ``gap_k`` the post-quench band gap and ``A_k`` an oscillation
amplitude fixed by the rotation between pre- and post-quench
eigenbases.  An exact determinant overlap on the full single-particle
matrix provides an independent check for ladders of up to 512 rungs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .model import LadderParams, allowed_modes, canonical_angle

__all__ = [
    "LESeries",
    "ModeArrays",
    "QuenchSpec",
    "exact_le_oracle",
    "loschmidt_echo",
    "mode_arrays",
]

ORACLE_MAX_RUNGS = 512
# Bytes of one float64 (times x modes) temporary in ``loschmidt_echo``.
_CHUNK_BYTES = 4 << 20
# Most elements of one buffer of the per-element path (512 KiB): large
# enough that threads seldom wait for each other between numpy calls.
_SLAB_ELEMENTS = 1 << 16
_EPS = float(np.finfo(float).eps)
# Modes whose amplitude A has 1 - A at most this keep the half-angle echo
# factor: the full-angle factor p + q cos phi can round to <= 0 there.
_NEAR_UNIT = 8 * _EPS
# Most harmonics a mode may take in the series form of ``loschmidt_echo``.
_SERIES_HARMONICS = 5
# The series transform (``_harmonic_sums``): times per segment, the
# Gaussian's half-width in grid points and its exponent exp(-_GAUSS k^2),
# e^-37.7 at the half-width (Greengard & Lee's choice for oversampling 2),
# and the terms spread at a time, their tables (56 bytes a term and grid
# point) within _CHUNK_BYTES.
_SEGMENT = 1 << 13
_SPREAD = 16
_GAUSS = 0.75 * math.pi / _SPREAD
_TERMS = _CHUNK_BYTES // (64 * (2 * _SPREAD + 1))


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
    ``la`` cuts the kernel's CPU time 2.3x at N = 9000 x 2001 times and
    2.1x at N = 1000 x 86604 (one thread; docs/formats.md, ``le``).
    """

    times: np.ndarray
    le: np.ndarray
    la: Optional[np.ndarray]
    rate: np.ndarray
    n_rungs: int


class ModeArrays(NamedTuple):
    """Per-mode quench data, one entry per wavenumber ``k``: eta is half the
    pre- minus post-quench rotation angle, ``amplitude`` = sin^2(2 eta), and
    ``ea_*`` are lower-band energies."""

    k: np.ndarray
    amplitude: np.ndarray
    cos2_eta: np.ndarray
    gap_post: np.ndarray
    ea_pre: np.ndarray
    ea_post: np.ndarray


def mode_arrays(spec: QuenchSpec, ks=None) -> ModeArrays:
    """Per-mode quench data at ``ks``; by default the modes 0 < k < pi of the
    grid, each standing also for 2 pi - k, which shares every field.

    With u = 2 j_h sin k, v = -2 j_h cos k and q = eps_qp, a flux theta has
    a = u sin theta, half gap h = sqrt(q^2 + a^2) and lower-band energy
    v cos theta - j_v - h.  Then sin 2 eta = q (a2 - a1) / (h1 h2) and
    cos 2 eta = (q^2 + a1 a2) / (h1 h2), eta = 0 where h1 h2 = 0.  A is
    sin^2 2 eta if that square is the smaller, else 1 - cos^2 2 eta, and
    min(cos^2 eta, sin^2 eta) = sin^2 2 eta / (2 (1 + |cos 2 eta|)).
    """
    p, n = spec.params, spec.params.n_rungs
    k = allowed_modes(n)[1 : (n + 1) // 2] if ks is None else np.asarray(ks, dtype=float)
    u, v = 2.0 * p.j_h * np.sin(k), -2.0 * p.j_h * np.cos(k)
    q = 2.0 * p.j_d * np.cos(k) + p.j_v
    a1, a2 = u * np.sin(spec.theta_pre), u * np.sin(spec.theta_post)
    h1, h2 = np.sqrt(q * q + a1 * a1), np.sqrt(q * q + a2 * a2)
    hh = h1 * h2
    s = np.divide(q * (a2 - a1), hh, out=np.zeros_like(hh), where=hh > 0.0)
    c = np.divide(q * q + a1 * a2, hh, out=np.ones_like(hh), where=hh > 0.0)
    small = s * s / (2.0 + 2.0 * np.abs(c))
    return ModeArrays(
        k=k,
        amplitude=np.where(s * s <= c * c, s * s, 1.0 - c * c),
        cos2_eta=np.where(c >= 0.0, 1.0 - small, small),
        gap_post=2.0 * h2,
        ea_pre=v * np.cos(spec.theta_pre) - p.j_v - h1,
        ea_post=v * np.cos(spec.theta_post) - p.j_v - h2,
    )


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


def _pieces(size: int, unit: int, workers: int) -> list:
    """Contiguous runs [lo, hi) of whole ``unit``-item parts of [0, size) (the
    last may be short), one per worker and at most one per part."""
    parts = -(-size // unit)
    workers = max(1, min(workers, parts))
    ends = [min(size, parts * i // workers * unit) for i in range(workers + 1)]
    return list(zip(ends, ends[1:]))


def _runs(size: int, rows: int, per: int):
    """Row ranges [lo, hi) of up to ``per`` whole blocks of ``rows`` rows
    covering ``size`` rows; a last, partial block is a run of its own, so
    ``x[lo:hi].reshape(-1, width)`` views every run as blocks."""
    whole = size // rows
    for i in range(0, whole, per):
        yield i * rows, min(i + per, whole) * rows, rows
    if whole * rows < size:
        yield whole * rows, size, size - whole * rows


def _phases(step: float, count: int, gap: np.ndarray) -> np.ndarray:
    """exp(i gap j step) for 0 <= j < ``count``, a (count x modes) array.

    With j = a s + b and s = isqrt(count), ``exp`` runs once on the about
    2 sqrt(count) rows of gap (a s step) and gap (b step), and each row
    is one product of the two, within a few eps of the direct value.
    """
    width = max(1, math.isqrt(count))
    coarse = np.exp(1j * np.multiply.outer(step * width * np.arange(-(-count // width)), gap))
    fine = np.exp(1j * np.multiply.outer(step * np.arange(width), gap))
    out = np.empty((count, gap.size), dtype=complex)
    for j, row in zip(range(0, count, width), coarse):
        np.multiply(row, fine[: count - j], out=out[j : j + width])
    return out


def _harmonic_sums(times: np.ndarray, step: float, omega: np.ndarray, coefs, outs) -> None:
    """Add Re sum_j coefs[a][j] exp(i omega_j t) to ``outs[a]`` on the
    uniform grid ``times`` of the given step, as type-1 non-uniform FFTs.

    Term j turns by x_j = 2 pi y_j / G per grid step, y_j = omega_j step
    G / (2 pi) reduced mod G, with G the FFT size: a power of two, at
    least twice the times of a segment (``_SEGMENT``, the last may be
    short) and wider than the Gaussian.  A segment's centre index c,
    with t_0 the grid's first time, is folded into the coefficients,
    d_j = coef_j exp(i (omega_j t_0 + x_j c)), so its sums are
    sum_j d_j exp(i x_j u) for u = l - c.  Each term is spread over the
    ``2 _SPREAD + 1`` nearest of G points with a Gaussian, one FFT sums
    the grid for every u, and dividing by the Gaussian's transform undoes
    the spreading (Greengard & Lee, SIAM Review 46(3), 2004).  x_j c is
    taken mod 2 pi from an exact product, so the fold and the transform
    turn each term alike: the phase at time t is off by about eps omega t
    at most, however long the segment.  Terms are spread ``_TERMS`` at a
    time, one transform each.
    """
    size = min(times.size, _SEGMENT)
    grid = 1 << (max(2 * size, 2 * _SPREAD + 1) - 1).bit_length()
    offsets = np.arange(-_SPREAD, _SPREAD + 1)
    u = np.arange(size) - size // 2
    deconv = math.sqrt(0.25 * _GAUSS / math.pi) * np.exp((math.pi / grid) ** 2 / _GAUSS * u * u)
    for lo in range(0, omega.size, _TERMS):
        terms = slice(lo, lo + _TERMS)
        y = omega[terms] * (step * grid / (2.0 * math.pi))
        y -= grid * np.rint(y / grid)
        near = np.rint(y)
        weights = np.exp(-_GAUSS * np.square(offsets - (y - near)[:, None]))
        # the real and imaginary part of grid point m at 2 m and 2 m + 1
        index = 2 * ((near.astype(int)[:, None] + offsets) % grid)
        index = np.stack((index, index + 1), axis=-1).ravel()
        # y = high + low, high of 21 bits: high * c is exact for c < 2^32
        high = y * (2.0**32 + 1.0)
        high -= high - y
        low = (y - high) * (2.0 * math.pi / grid)
        for first in range(0, times.size, _SEGMENT):
            n = min(_SEGMENT, times.size - first)
            half = n // 2
            turns = high * (first + half) / grid
            turns -= np.rint(turns)
            phase = np.exp(1j * (2.0 * math.pi * turns + (low * (first + half) + omega[terms] * times[0])))
            for coef, out in zip(coefs, outs):
                spread = (coef[terms] * phase)[:, None] * weights
                spread = np.bincount(index, spread.view(float).ravel(), 2 * grid).view(complex)
                # Re sum_m g_m exp(2 pi i u m / G) is half the real transform of g_m + conj(g_-m)
                spread = spread[: grid // 2 + 1] + np.conj(spread[-np.arange(grid // 2 + 1)])
                sums = np.fft.irfft(spread, grid, norm="forward")
                sums = np.concatenate((sums[grid - half :], sums[: n - half]))
                out[first : first + n] += sums * deconv[size // 2 - half : size // 2 - half + n]


class _DirectModes:
    """A group of the modes whose factors ``loschmidt_echo`` takes per
    element, each mode counted twice: the half-angle factor when ``step``
    is None, else the full-angle one with one (``rows`` x modes) offset
    table of the uniform grid of that step.  Time runs in blocks of
    ``rows`` rows.  Each numpy call takes a slab of up to
    ``_SLAB_ELEMENTS`` elements per buffer: some rows of one block, or
    those rows of several blocks when a whole block holds fewer elements.
    """

    def __init__(self, amplitude, cos2, gap, step, rows, workers):
        self.rows, self.gap = rows, gap
        # rows of one block in a slab: with its start row, at most half of a
        # thread's share of a block, so all threads' buffers hold half a block
        self.strip = max(1, min(_SLAB_ELEMENTS // gap.size, rows // workers // 2 - 1))
        self.per = max(1, _SLAB_ELEMENTS // (rows * gap.size))  # blocks in a slab
        self.full = step is not None
        if self.full:  # exp(-i gap tau_j)
            self.q = 0.5 * amplitude
            self.p, self.r = 1.0 - self.q, 2.0 * cos2 ** 2
            self.offsets = _phases(step, rows, gap)
            np.conjugate(self.offsets, out=self.offsets)
        else:
            self.amp, self.cos2, self.half_gap = amplitude, cos2, 0.5 * gap

    def run(self, times, *outs) -> None:
        """Add the sums of the blocks of ``times`` to ``outs`` (ln le, then
        the argument); every element and row sum is the same for any split."""
        form = self._full_angle if self.full else self._half_angle
        layers = 3 if self.full or len(outs) > 1 else 2  # a complex and a float, or s, f (and c)
        work = np.empty(layers * self.per * self.strip * self.gap.size)
        with np.errstate(divide="ignore"):
            for lo, hi, width in _runs(times.size, self.rows, self.per):
                blocks = -(-(hi - lo) // width)
                base = times[lo:hi].reshape(blocks, width, 1)
                if self.full:  # the blocks' start rows q exp(-i phi_I)
                    start = np.exp(-1j * np.multiply.outer(times[lo:hi:width], self.gap))
                    base = np.multiply(start, self.q, out=start)[:, None]
                views = [out[lo:hi].reshape(blocks, width) for out in outs]
                for a in range(0, width, self.strip):
                    b = min(a + self.strip, width)
                    form(base, a, b, work[: layers * blocks * (b - a) * self.gap.size], *(x[:, a:b] for x in views))

    def _half_angle(self, t, a, b, work, log_le, arg=None) -> None:
        layer = work.reshape((-1,) + log_le.shape + self.gap.shape)
        s, f, c = layer[0], layer[1], layer[-1]  # c, a third layer, only with arg
        np.multiply(self.half_gap, t[:, a:b], out=f)
        np.sin(f, out=s)
        if arg is not None:
            np.cos(f, out=c)
            c *= s
            c *= -2.0 * (1.0 - self.cos2)  # -2 sin^2(eta) s c
        np.square(s, out=s)
        np.minimum(s, 1.0, out=s)
        np.multiply(self.amp, s, out=f)
        np.subtract(1.0, f, out=f)  # echo factors 1 - A s^2
        log_le += 2.0 * np.sum(np.log(f, out=f), axis=-1)
        if arg is not None:
            np.multiply(-2.0, s, out=f)
            f += 1.0
            f *= 1.0 - self.cos2
            f += self.cos2  # cos^2(eta) + sin^2(eta) (1 - 2 s^2)
            arg += 2.0 * np.sum(np.arctan2(c, f, out=c), axis=-1)

    def _full_angle(self, start, a, b, work, log_le, arg=None) -> None:
        size = work.size // 3
        z = work[: 2 * size].view(complex).reshape(log_le.shape + (-1,))
        f = work[2 * size :].reshape(z.shape)
        np.multiply(self.offsets[a:b], start, out=z)  # q exp(-i phi), phi = phi_I + tau_j
        np.add(z.real, self.p, out=f)  # p + q cos(phi)
        log_le += 2.0 * np.sum(np.log(f, out=f), axis=-1)
        if arg is not None:
            # the argument of cos^2(eta) + sin^2(eta) exp(-i phi), both parts
            # times 2 cos^2(eta) > 0 (q = 2 sin^2(eta) cos^2(eta))
            np.add(z.real, self.r, out=f)
            arg += 2.0 * np.sum(np.arctan2(z.imag, f, out=f), axis=-1)


def loschmidt_echo(spec: QuenchSpec, times, include_la: bool = True) -> LESeries:
    """Echo, amplitude, and rate function on the given time grid.

    The modes 0 < k < pi of ``mode_arrays`` are each counted twice; at k = 0
    and k = pi, sin k = 0 and the factor is 1.  Each mode's amplitude factor
    is cos^2 eta + sin^2 eta e^{-i phi}, phi = gap t, and its squared
    modulus the echo factor 1 - A sin^2(phi / 2) = p + q cos phi, with
    p = 1 - A/2 and q = A/2; the lower-band phase is t times the sum of
    ea_post over all N modes.  Each mode takes one of three forms:

    * Half angle: 1 - A s^2 with s = sin(phi / 2), s^2 clamped at 1, and
      argument atan2(-2 sin^2 eta s c, cos^2 eta + sin^2 eta (1 - 2 s^2)),
      c = cos(phi / 2), from ``sin`` and ``cos`` per element.  Every mode
      on a grid that is not uniform (``_uniform_step``); on a uniform
      grid those with 1 - A <= ``_NEAR_UNIT``.  A factor is exactly 0
      only for A = 1 where s^2 rounds to 1, which gives ``rate = +inf``.
    * Full angle: p + Re z with z = q exp(-i phi), and argument
      atan2(Im z, 2 cos^4 eta + Re z), the parts of
      cos^2 eta + sin^2 eta exp(-i phi) times 2 cos^2 eta > 0; z is one
      complex product per element (below).
    * Series: with c = cos 2 eta and rho = A / (1 + |c|)^2 (tan^2 eta or
      cot^2 eta, below 1), ln(p + q cos phi) =
      2 ln((1 + |c|) / 2) + 2 sum_m (-1)^(m+1) rho^m cos(m phi) / m, and
      the argument is -/+ sum_m (-1)^(m+1) rho^m sin(m phi) / m (- for
      c >= 0), minus phi for c < 0, which joins the lower-band phase.  A
      mode takes the series when some K <= ``_SERIES_HARMONICS`` has
      2 rho^(K+1) / ((K + 1)(1 - rho)) <= eps / 4, the bound on the
      series tail after K terms; it takes the least such K.

    On a uniform grid the series sums over all (mode, harmonic) terms,
    Re sum coef exp(i m gap t), are one type-1 non-uniform FFT per
    segment of ``_SEGMENT`` times (``_harmonic_sums``), in the calling
    thread; ``le`` and ``rate`` are the same bits with or without
    ``include_la``, since ln le and the argument are transformed apart.
    The other forms run per element, in blocks of B rows,
    B = min(floor(sqrt(T)), ``_CHUNK_BYTES`` / (16 M)) for M modes.  On a
    uniform grid t = t_I + tau_j with t_I a block's first time and
    tau_j = j * step, and the full-angle z is
    (q exp(-i gap t_I)) exp(-i gap tau_j): the exp(-i gap tau_j) table
    comes from about 2 sqrt(B) rows of ``exp`` (``_phases``) once per
    call, and ``exp`` of -i gap t_I runs once per block.  Nothing is
    carried from block to block or segment to segment, so the rounding
    does not grow along the grid.

    The blocks are split into one contiguous run of whole blocks per CPU
    of the process's affinity set, and the runs go on threads (numpy
    releases the GIL) for one form at a time: the half-angle modes, then
    the full-angle modes (``_DirectModes``).  There is at most one thread
    per 4 rows of a block, and a cgroup CPU quota below the affinity set
    caps the count too (``_worker_count``); a grid of one block runs in
    the calling thread.  Every element, row sum and transform takes the
    same operations for any split, so the results are the same bits for
    any number of CPUs.  The measured costs of these choices are in
    docs/formats.md, under ``le``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a one-dimensional array")
    if times.size and (not np.all(np.isfinite(times)) or times.min() < 0.0):
        raise DomainError("times must be non-negative and finite")

    _, amplitude, cos2, gap, _, ea_post = mode_arrays(spec)
    n = spec.params.n_rungs
    step = _uniform_step(times)
    unit = amplitude > 1.0 - _NEAR_UNIT if step is not None else np.ones(gap.size, dtype=bool)
    rho = amplitude / (1.0 + np.sqrt(1.0 - amplitude)) ** 2
    harmonics = np.full(gap.size, _SERIES_HARMONICS + 1)
    for k in range(_SERIES_HARMONICS, -1, -1):
        harmonics[2.0 * rho ** (k + 1) <= 0.25 * _EPS * (k + 1) * (1.0 - rho)] = k
    series = ~unit & (harmonics <= _SERIES_HARMONICS)
    rows = max(1, min(math.isqrt(times.size), _CHUNK_BYTES // (16 * max(1, gap.size))))
    # ln le starts at the series constants 2 * 2 ln((1 + |c|) / 2)
    amp_s = amplitude[series]
    log_le = np.full(times.size, float(np.sum(4.0 * np.log1p(-amp_s / (2.0 + 2.0 * np.sqrt(1.0 - amp_s))))))
    outs = [log_le, np.zeros(times.size)] if include_la else [log_le]  # ln le and the argument
    # the lower-band phase: k = 0 (k = pi for even N) and the -phi of series modes with c < 0
    ends = mode_arrays(spec, [0.0, math.pi][: 2 - n % 2]).ea_post
    lower_band = 2.0 * float(np.sum(ea_post) + np.sum(gap[series][cos2[series] < 0.5])) + float(np.sum(ends))
    t_max = float(times.max()) if times.size else 0.0
    if not math.isfinite(t_max * (float(np.max(gap, initial=0.0)) + abs(lower_band))):
        raise DomainError(f"times up to {t_max:g} overflow the mode phases gap * t")

    # runs of whole blocks, one per thread, and at most one thread per 4 rows
    # of a block, so that every thread's strip (``_DirectModes``) has a row
    pieces = _pieces(times.size, rows, min(_worker_count(), rows // 4))

    for group, group_step in ((unit, None), (~unit & ~series, step)):
        if group.any():
            modes = _DirectModes(amplitude[group], cos2[group], gap[group], group_step, rows, len(pieces))
            _run_pieces(lambda lo, hi: modes.run(times[lo:hi], *(out[lo:hi] for out in outs)), pieces)
    # the series terms: harmonics m = 1 .. K of each series mode
    cols, m = np.nonzero(series[:, None] & (harmonics[:, None] > np.arange(_SERIES_HARMONICS)))
    m += 1
    coef = (-1.0) ** (m + 1) * rho[cols] ** m / m
    sign = np.where(cos2[cols] >= 0.5, -2.0, 2.0)
    _harmonic_sums(times, step, m * gap[cols], (4.0 * coef, -1j * sign * coef), outs)
    le = np.exp(log_le)
    rate = -log_le / n
    la = None
    if include_la:
        la = np.exp(0.5 * log_le + 1j * (outs[1] - times * lower_band))
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


def exact_le_oracle(spec: QuenchSpec, t):
    """Echo and amplitude from an exact determinant overlap.

    Fills the N lowest orbitals of the pre-quench single-particle
    matrix, evolves with the post-quench matrix, and returns
    (|det|^2, det) of the occupied-orbital overlap: floats for a scalar
    ``t``, arrays for an array of times.  The two ``eigh`` calls and the
    projection of the occupied orbitals on the post-quench ones run once
    per call, then one N x N determinant per time.  Limited to
    ``ORACLE_MAX_RUNGS``: one call with six times took 0.3 s at 256 rungs
    and 2.4 s at 512 (2 vCPUs), nearly all of it in the two ``eigh``
    calls.  The mode-product formula must agree exactly.
    """
    n = spec.params.n_rungs
    if n > ORACLE_MAX_RUNGS:
        raise DomainError(
            f"oracle limited to n_rungs <= {ORACLE_MAX_RUNGS}, got {n}"
        )
    times = np.asarray(t, dtype=float)
    _, v_pre = np.linalg.eigh(_single_particle_matrix(spec.pre))
    w_post, v_post = np.linalg.eigh(_single_particle_matrix(spec.post))
    projection = v_post.conj().T @ v_pre[:, :n]
    adjoint = projection.conj().T
    la = np.array([np.linalg.det((adjoint * np.exp(-1j * w_post * time)) @ projection)
                   for time in times.ravel()]).reshape(times.shape)
    if times.ndim == 0:
        la = complex(la)
        return abs(la) ** 2, la
    return np.abs(la) ** 2, la
