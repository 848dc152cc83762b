"""Loschmidt amplitude and echo after a sudden flux quench: the echo kernel.

The flux is changed instantaneously from ``theta_pre`` to ``theta_post``
with the system prepared in the lower-band-filled state of the
pre-quench ladder.  Because the quench conserves the wavenumber, the
echo factorizes over modes:

    le(t) = prod_k [1 - A_k sin^2(gap_k t / 2)]

with ``gap_k`` the post-quench band gap and ``A_k`` an oscillation
amplitude fixed by the rotation between pre- and post-quench
eigenbases.  ``QuenchSpec``, ``LESeries``, the table ``mode_arrays`` and
the thread runner live in ``model``, as does ``exact_le_oracle``, an
exact determinant overlap that checks the echo for up to 512 rungs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError
from .model import LESeries, QuenchSpec, _run_pieces, _worker_count, mode_arrays

__all__ = ["loschmidt_echo"]

# Bytes of one float64 (times x modes) temporary in ``loschmidt_echo``.
_CHUNK_BYTES = 4 << 20
# Most elements of a slab of the per-element path, 512 KiB a temporary:
# large enough that threads seldom wait for each other between numpy calls.
_SLAB_ELEMENTS = 1 << 16
_EPS = float(np.finfo(float).eps)
# Modes whose amplitude A has 1 - A at most this keep the half-angle echo
# factor: the full-angle factor p + q cos phi can round to <= 0 there.
_NEAR_UNIT = 8 * _EPS
# The series form of ``loschmidt_echo``: most harmonics a mode may take
# (its accuracy ceiling), fewest it may always take, and the per-element
# factors that one harmonic costs as much as on each segment.
_SERIES_HARMONICS = 32
_SERIES_FLOOR = 5
_TERM_COST = 400
# The series transform (``_harmonic_sums``): times per segment, the
# Gaussian's half-width in grid points and its exponent exp(-_GAUSS k^2),
# e^-37.7 at the half-width (Greengard & Lee's choice for oversampling 2),
# and the terms spread at a time, their tables (32 bytes a term and grid
# point) within 1 MiB.
_SEGMENT = 1 << 14
_SPREAD = 16
_GAUSS = 0.75 * math.pi / _SPREAD
_TERMS = (1 << 20) // (32 * (2 * _SPREAD + 1))


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
    ``2 _SPREAD + 1`` nearest of G points with a Gaussian, ``_TERMS`` terms
    at a time into one grid per output, each chunk by ``bincount`` over
    the points it reaches only (with |y_j| <= G / 2, the points within
    _SPREAD of the grid, wrapped in mod G once per segment); then one FFT
    per segment and output sums the grid for every u, and dividing by the
    Gaussian's transform undoes the spreading (Greengard & Lee, SIAM
    Review 46(3), 2004).  x_j c is taken mod 2 pi from an exact product,
    so the fold and the transform turn each term alike: the phase at time
    t is off by about eps omega t at most, however long the segment.
    """
    if not omega.size:
        return
    size = min(times.size, _SEGMENT)
    grid = 1 << (max(2 * size, 2 * _SPREAD + 1) - 1).bit_length()
    deconv = np.exp((math.pi / grid) ** 2 / _GAUSS * np.square(np.arange(size) - size // 2))
    deconv *= math.sqrt(0.25 * _GAUSS / math.pi)
    # the chunk tables, one row of 2 _SPREAD + 1 grid points a term: the
    # points' offsets from the nearest, then their weights, their indices
    # and a product, each written in place, once per call: numpy would
    # buffer a product with a repeated row, and fresh tables page-fault
    offsets = np.tile(np.arange(-_SPREAD, _SPREAD + 1.0), (min(_TERMS, omega.size), 1))
    weights, product = np.empty_like(offsets), np.empty_like(offsets)
    index = np.empty(offsets.shape, dtype=np.intp)
    # per output, grid point x, |x| <= G/2 + _SPREAD before it wraps mod G,
    # at x + G/2 + _SPREAD; and the Hermitian part of the grid, G/2 + 1 points
    spans = [np.zeros(grid + 2 * _SPREAD + 1, dtype=complex) for _ in outs]
    spread = np.empty(grid // 2 + 1, dtype=complex)
    for first in range(0, times.size, _SEGMENT):
        n = min(_SEGMENT, times.size - first)
        half = n // 2
        for lo in range(0, omega.size, _TERMS):
            terms = slice(lo, lo + _TERMS)
            y = omega[terms] * (step * grid / (2.0 * math.pi))
            y -= grid * np.rint(y / grid)
            near = np.rint(y)
            w, p, at = weights[: y.size], product[: y.size], index[: y.size]
            np.copyto(w, (y - near)[:, None])
            np.subtract(offsets[: y.size], w, out=w)
            np.square(w, out=w)
            w *= -_GAUSS
            np.exp(w, out=w)
            # the chunk's points from x = min(near) - _SPREAD on
            base = int(near.min())
            np.copyto(p, (near - (base - _SPREAD))[:, None])
            p += offsets[: y.size]
            np.copyto(at, p, casting="unsafe")
            width = int(near.max()) - base + 2 * _SPREAD + 1
            # y = high + low, high of 21 bits: high * c is exact for c < 2^32
            high = y * (2.0**32 + 1.0)
            high -= high - y
            low = (y - high) * (2.0 * math.pi / grid)
            turns = high * (first + half) / grid
            turns -= np.rint(turns)
            phase = np.exp(1j * (2.0 * math.pi * turns + (low * (first + half) + omega[terms] * times[0])))
            for coef, span in zip(coefs, spans):
                folded, part = coef[terms] * phase, span[base + grid // 2 : base + grid // 2 + width]
                for values, target in ((folded.real, part.real), (folded.imag, part.imag)):
                    np.copyto(p, values[:, None])
                    p *= w
                    target += np.bincount(at.ravel(), p.ravel(), width)
        for span, out in zip(spans, outs):
            points = span[_SPREAD : _SPREAD + grid]  # x = -G/2 .. G/2 - 1, the ends wrapped in
            points[-_SPREAD:] += span[:_SPREAD]
            points[: _SPREAD + 1] += span[_SPREAD + grid :]
            # Re sum_m g_m exp(2 pi i u m / G) is half the real transform of
            # g_m + conj(g_-m), 0 <= m <= G/2: g_m at x = m, x = -G/2 for m = G/2
            mirror = points[grid // 2 :: -1]
            np.concatenate((points[grid // 2 :], points[:1]), out=spread)
            spread.real += mirror.real
            spread.imag -= mirror.imag
            span.fill(0.0)  # for the next segment
            sums = np.fft.irfft(spread, grid, norm="forward")
            sums = np.concatenate((sums[grid - half :], sums[: n - half]))
            sums *= deconv[size // 2 - half : size // 2 - half + n]
            out[first : first + n] += sums


class _DirectModes:
    """A group of the modes whose factors ``loschmidt_echo`` takes per
    element, each mode counted twice: the half-angle factor when ``step``
    is None, else the full-angle one with one (``rows`` x modes) offset
    table of the uniform grid of that step.  Time runs in blocks of
    ``rows`` rows, and each form is numpy expressions on a slab of up to
    ``_SLAB_ELEMENTS`` elements: some rows of one block, or those rows of
    several blocks when a whole block holds fewer elements.  The forms
    write into arrays that ``run`` allocates once: a complex array of the
    largest slab, followed by the full angle's start rows, and, but for the
    half-angle echo, a float array of the largest slab.
    """

    def __init__(self, amplitude, cos2, gap, step, rows, workers):
        self.full = step is not None
        if self.full:  # to a multiple of 4 modes, with A = 0, cos^2 eta = 1, gap 0: factor 1
            pad = -gap.size % 4
            amplitude, cos2, gap = (np.append(x, [fill] * pad)
                                    for x, fill in ((amplitude, 0.0), (cos2, 1.0), (gap, 0.0)))
        # numpy buffers an operand that repeats one row when two rows fit in
        # its ufunc buffer (8192 elements), through up to 128 KiB each call;
        # for such short rows the full angle copies the row into the slab
        self.rows, self.gap, self.short = rows, gap, 2 * gap.size <= np.getbufsize()
        # rows of one block in a slab: with its start row, at most half of a
        # thread's share of a block, so all threads' slabs hold half a block
        self.strip = max(1, min(_SLAB_ELEMENTS // gap.size, rows // workers // 2 - 1))
        self.per = max(1, _SLAB_ELEMENTS // (rows * gap.size))  # blocks in a slab
        if self.full:  # exp(-i gap tau_j)
            self.q = 0.5 * amplitude
            self.p, self.r = 1.0 - self.q, 2.0 * cos2 ** 2
            self.offsets = _phases(step, rows, gap)
            np.conjugate(self.offsets, out=self.offsets)
        else:
            self.neg_amp, self.cos2, self.sin2, self.half_gap = -amplitude, cos2, 1.0 - cos2, 0.5 * gap
            self.arg_scale = -2.0 * self.sin2

    def run(self, times, *outs) -> None:
        """Add the sums of the blocks of ``times`` to ``outs`` (ln le, then
        the argument); every element and row sum is the same for any split."""
        form = self._full_angle if self.full else self._half_angle
        # the run's arrays: the slab's, of up to ``per`` blocks of ``strip``
        # rows, with the full angle's start rows after the complex one's
        most = self.per * self.strip * self.gap.size
        wide = np.empty(most + self.per * self.gap.size * self.full, dtype=complex)
        slab = wide[:most], np.empty(most) if self.full or len(outs) > 1 else None
        starts = wide[most:].reshape(-1, self.gap.size)
        with np.errstate(divide="ignore"):
            for lo, hi, width in _runs(times.size, self.rows, self.per):
                blocks = -(-(hi - lo) // width)
                base = times[lo:hi].reshape(blocks, width, 1)
                if self.full:  # the blocks' start rows q exp(-i phi_I), -i phi_I as -1j * phi_I
                    base = starts[:blocks]
                    base.real = 0.0
                    np.multiply.outer(-times[lo:hi:width], self.gap, out=base.imag)
                    np.exp(base, out=base)
                    for part in (base.real, base.imag):  # times q, as the product with q + 0j
                        np.multiply(part, self.q, out=part)
                    base = base[:, None]
                views = [out[lo:hi].reshape(blocks, width) for out in outs]
                for a in range(0, width, self.strip):
                    b = min(a + self.strip, width)
                    form(base, a, b, *slab, *(x[:, a:b] for x in views))

    def _half_angle(self, t, a, b, wide, narrow, log_le, arg=None) -> None:
        shape = (t.shape[0], b - a, self.gap.size)
        s, f = wide.view(float)[: 2 * math.prod(shape)].reshape(2, *shape)
        np.sin(np.multiply(self.half_gap, t[:, a:b], out=s), out=s)
        if arg is not None:
            c = narrow[: s.size].reshape(shape)
            np.cos(np.multiply(self.half_gap, t[:, a:b], out=c), out=c)
            c *= s
            c *= self.arg_scale  # -2 sin^2(eta) s c
        s *= s
        np.minimum(s, 1.0, out=s)
        if arg is not None:  # cos^2(eta) + sin^2(eta) (1 - 2 s^2), in f
            np.multiply(s, -2.0, out=f)
            f += 1.0
            f *= self.sin2
            f += self.cos2
            arg += 2.0 * np.sum(np.arctan2(c, f, out=c), axis=-1)
        np.multiply(s, self.neg_amp, out=f)  # echo factors 1 - A s^2
        f += 1.0
        log_le += 2.0 * np.sum(np.log(f, out=f), axis=-1)

    def _full_angle(self, start, a, b, wide, narrow, log_le, arg=None) -> None:
        shape = (start.shape[0], b - a, self.gap.size)
        n = math.prod(shape)
        z, f = wide[:n].reshape(shape), narrow[:n].reshape(shape)
        if self.short:  # the per-mode rows into the slab first, then the product
            np.copyto(z, start)
            np.multiply(z, self.offsets[a:b], out=z)
            np.copyto(f, self.p)
            f += z.real
        else:
            np.multiply(self.offsets[a:b], start, out=z)  # q exp(-i phi), phi = phi_I + tau_j
            np.add(z.real, self.p, out=f)  # p + q cos(phi)
        log_le += 2.0 * np.sum(np.log(f, out=f), axis=-1)
        if arg is not None:
            # w = 2 cos^4(eta) + z is cos^2(eta) + sin^2(eta) exp(-i phi) times
            # 2 cos^2(eta) > 0 (q = 2 sin^2(eta) cos^2(eta)); la needs the sum
            # of the arguments mod 2 pi only, so one arctan2 per product of
            # four neighbouring modes: w in pairs into the float array, those
            # in pairs into the complex one
            if self.short:
                np.copyto(f, self.r)
                z.real += f
            else:
                np.add(z.real, self.r, out=z.real)
            pair, quad = narrow[:n].view(complex), wide[: n // 4]
            np.multiply(wide[:n:2], wide[1:n:2], out=pair)
            np.multiply(pair[0::2], pair[1::2], out=quad)
            angles = np.arctan2(quad.imag, quad.real, out=wide.view(float)[n // 2 : 3 * n // 4])
            arg += 2.0 * np.sum(angles.reshape(shape[0], shape[1], -1), axis=-1)


def loschmidt_echo(spec: QuenchSpec, times, include_la: bool = True) -> LESeries:
    """Echo, amplitude, and rate function on the given time grid.

    The modes 0 < k < pi of ``mode_arrays`` are each counted twice; at k = 0
    and k = pi, sin k = 0 and the factor is 1.  Each mode's amplitude factor
    is cos^2 eta + sin^2 eta e^{-i phi}, phi = gap t, and its squared
    modulus the echo factor 1 - A sin^2(phi / 2) = p + q cos phi, with
    p = 1 - A/2 and q = A/2; the lower-band phase is t times the sum of
    ea_post over all N modes.  Each mode takes one of three forms:

    * Half angle: 1 - A s^2 with s = sin(phi / 2), and argument
      atan2(-2 sin^2 eta s c, cos^2 eta + sin^2 eta (1 - 2 s^2)),
      c = cos(phi / 2), from ``sin`` and ``cos`` per element.  Every mode
      on a grid that is not uniform (``_uniform_step``); on a uniform
      grid those with 1 - A <= ``_NEAR_UNIT``.  A factor is exactly 0
      only for A = 1 where s^2 rounds to 1, which gives ``rate = +inf``.
      s^2 is clamped at 1, a guard against a ``sin`` with more than one
      ulp of error that rounds above 1.
    * Full angle: p + Re z with z = q exp(-i phi), one complex product
      per element (below).  w = 2 cos^4 eta + z is
      cos^2 eta + sin^2 eta exp(-i phi) times 2 cos^2 eta > 0, and as
      ``la`` needs the sum of the arguments mod 2 pi only, the argument
      is one atan2 per product of the w of four neighbouring modes; the
      modes are padded to a multiple of 4 with factors 1 for that, with
      or without ``la``, and ln le sums whole rows, pads too.
    * Series: with c = cos 2 eta and rho = A / (1 + |c|)^2 (tan^2 eta or
      cot^2 eta, below 1), ln(p + q cos phi) =
      2 ln((1 + |c|) / 2) + 2 sum_m (-1)^(m+1) rho^m cos(m phi) / m, and
      the argument is -/+ sum_m (-1)^(m+1) rho^m sin(m phi) / m (- for
      c >= 0), minus phi for c < 0, which joins the lower-band phase.  A
      mode takes the series when some K <= H has
      2 rho^(K+1) / ((K + 1)(1 - rho)) <= eps / 4, the bound on the
      series tail after K terms; it takes the least such K.  The budget H
      depends on the grid's T times alone: a harmonic costs about as much
      as ``_TERM_COST`` per-element factors on each of the S segments, so
      H = T // (``_TERM_COST`` S), at least ``_SERIES_FLOOR`` and at most
      ``_SERIES_HARMONICS``, where the transform's rounding sets the limit.

    On a uniform grid the series sums over all (mode, harmonic) terms,
    Re sum coef exp(i m gap t), are one type-1 non-uniform FFT per
    segment of ``_SEGMENT`` times and output (``_harmonic_sums``), in the
    calling thread; ``le`` and ``rate`` are the same bits with or without
    ``include_la``, since the split does not depend on it and ln le and
    the argument are transformed apart.
    The other forms run per element, in blocks of B rows,
    B = min(floor(sqrt(T)), ``_CHUNK_BYTES`` / (16 M)) for M modes.  On a
    uniform grid t = t_I + tau_j with t_I a block's first time and
    tau_j = j * step, and the full-angle z is
    (q exp(-i gap t_I)) exp(-i gap tau_j): the exp(-i gap tau_j) table
    comes from about 2 sqrt(B) rows of ``exp`` (``_phases``) once per
    call, and ``exp`` of -i gap t_I runs once per block.  Nothing is
    carried from block to block or segment to segment, so the rounding
    does not grow along the grid.

    The blocks are split into one contiguous run of whole blocks per CPU of
    the process's affinity set, and the runs go on threads (numpy releases
    the GIL) once per call, each with the half-angle, then the full-angle
    modes of its run (``_DirectModes``).  There is at most one thread per 4
    rows of a block, and a cgroup CPU quota below the affinity set caps the
    count too (``model._worker_count``); a grid of one block runs in the
    calling thread.  ``model._run_pieces`` makes the split and the threads,
    and before threads start it parks numpy's idle OpenBLAS pool if no
    other thread has a Python frame.
    Every element, row sum and transform takes the same operations for
    any split, so the results are the same bits for any number of CPUs.
    The measured costs of these choices are in docs/formats.md, under ``le``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a one-dimensional array")
    if times.size and (not np.all(np.isfinite(times)) or times.min() < 0.0):
        raise DomainError("times must be non-negative and finite")

    table = mode_arrays(spec)
    amplitude, cos2, gap, ea_sum = table.amplitude, table.cos2_eta, table.gap_post, float(np.sum(table.ea_post))
    del table  # its k and energies, before the kernel
    n = spec.params.n_rungs
    step = _uniform_step(times)
    unit = amplitude > 1.0 - _NEAR_UNIT if step is not None else np.ones(gap.size, dtype=bool)
    rho = amplitude / (1.0 + np.sqrt(1.0 - amplitude)) ** 2
    segments = max(1, -(-times.size // _SEGMENT))
    budget = max(_SERIES_FLOOR, min(_SERIES_HARMONICS, times.size // (_TERM_COST * segments)))
    harmonics = np.full(gap.size, budget + 1)
    for k in range(budget, -1, -1):
        harmonics[2.0 * rho ** (k + 1) <= 0.25 * _EPS * (k + 1) * (1.0 - rho)] = k
    series = ~unit & (harmonics <= budget)
    rows = max(1, min(math.isqrt(times.size), _CHUNK_BYTES // (16 * max(1, gap.size))))
    # ln le starts at the series constants 2 * 2 ln((1 + |c|) / 2)
    amp_s = amplitude[series]
    log_le = np.full(times.size, float(np.sum(4.0 * np.log1p(-amp_s / (2.0 + 2.0 * np.sqrt(1.0 - amp_s))))))
    outs = [log_le, np.zeros(times.size)] if include_la else [log_le]  # ln le and the argument
    # the lower-band phase: k = 0 (k = pi for even N) and the -phi of series modes with c < 0
    ends = mode_arrays(spec, [0.0, math.pi][: 2 - n % 2]).ea_post
    lower_band = 2.0 * float(ea_sum + np.sum(gap[series][cos2[series] < 0.5])) + float(np.sum(ends))
    t_max = float(times.max()) if times.size else 0.0
    if not math.isfinite(t_max * (float(np.max(gap, initial=0.0)) + abs(lower_band))):
        raise DomainError(f"times up to {t_max:g} overflow the mode phases gap * t")

    # one run of whole blocks per thread (T > 0 times make at least rows blocks),
    # at most one thread per 4 rows of a block, so that each strip has a row
    workers = max(1, min(_worker_count(), rows // 4))
    groups = [_DirectModes(amplitude[group], cos2[group], gap[group], group_step, rows, workers)
              for group, group_step in ((unit, None), (~unit & ~series, step)) if group.any()]

    def run_groups(lo, hi) -> None:  # a piece's rows: the half-angle modes, then the full-angle ones
        for modes in groups:
            modes.run(times[lo:hi], *(out[lo:hi] for out in outs))

    if groups:
        _run_pieces(run_groups, times.size, rows, workers)
    del groups  # the offset table, before the series transform's tables
    # the series terms: harmonics m = 1 .. K of each series mode; the
    # argument's coefficients are +/- 2i coef (+ for c >= 0), its -/+ sines
    cols, m = np.nonzero(series[:, None] & (harmonics[:, None] > np.arange(budget)))
    m += 1
    coef = (-1.0) ** (m + 1) * rho[cols] ** m / m
    coefs = (4.0 * coef, np.where(cos2[cols] >= 0.5, 2j, -2j) * coef) if include_la else (4.0 * coef,)
    _harmonic_sums(times, step, m * gap[cols], coefs, outs)
    la = np.exp(0.5 * log_le + 1j * (outs[1] - times * lower_band)) if include_la else None
    return LESeries(times=times, le=np.exp(log_le), la=la, rate=-log_le / n, n_rungs=n)
