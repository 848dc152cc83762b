"""Creutz ladder and its quenches in closed form: bands, commensurability, mode tables.

The ladder has two legs of ``n_rungs`` sites with periodic boundary
conditions, horizontal hopping ``j_h`` carrying a Peierls phase
``exp(+/- i theta)``, vertical hopping ``j_v``, and diagonal hopping
``j_d``.  The flux per plaquette is ``theta/pi``.

All band energies here use the shifted convention: the constant ``j_v``
is subtracted from both quasiparticle branches.  Gaps and energy
differences are unaffected by the shift.  Every mode table reads its
band terms from one owner, ``_band_terms``.  A sudden flux quench
(``QuenchSpec``) has one closed-form per-mode table, ``mode_arrays``,
which the echo kernel (``quench``), ``dqpt`` and ``thermo`` read, and
``exact_le_oracle``, the determinant-overlap echo of the real-space
matrix, referees the kernel.  The process helpers that split the
kernel's and the work scan's ranges over threads live here too.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, InvalidQuenchTargetError

__all__ = [
    "LESeries",
    "LadderParams",
    "ModeArrays",
    "ModeData",
    "QuenchSpec",
    "allowed_modes",
    "canonical_angle",
    "commensurate_base",
    "critical_wavenumbers",
    "exact_le_oracle",
    "group_velocity",
    "is_critical_flux",
    "mode_arrays",
    "mode_data",
]

_CRITICAL_TARGET_TOL = 1e-12
ORACLE_MAX_RUNGS = 512
# Band energies reach about 3 |j|; squaring them must stay between the float
# underflow and overflow thresholds (~2.2e-308, ~1.8e308), with room for sums.
_MAX_HOPPING = 1e150
_MIN_HOPPING = 1e-150  # of a nonzero hopping


def _integer_count(value, name: str = "n_rungs", least: int = 2) -> int:
    """``value`` as an int; non-finite, fractional or < ``least`` values are rejected."""
    # the chained comparison is False for nan and inf, so int() never sees them
    if not least <= value < math.inf or int(value) != value:
        raise DomainError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


def canonical_angle(theta: float) -> float:
    """Reduce a finite angle to the interval (-pi, pi]."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"angle must be finite, got {theta}")
    reduced = math.remainder(theta, 2.0 * math.pi)
    if reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


def is_critical_flux(theta: float) -> bool:
    """True when ``theta`` is a gap-closing flux, 0 or pi modulo 2 pi."""
    theta = abs(canonical_angle(theta))
    return theta <= _CRITICAL_TARGET_TOL or abs(theta - math.pi) <= _CRITICAL_TARGET_TOL


@dataclass(frozen=True)
class LadderParams:
    """Hopping amplitudes, flux, and size of one Creutz ladder.

    ``theta`` is stored canonically in (-pi, pi].  Hoppings must be finite
    with magnitude at most 1e150 and, unless zero, at least 1e-150, so that
    the squared band energies neither overflow nor underflow; ``j_v`` and
    ``j_d`` must be positive; ``n_rungs`` is the number of sites per leg.
    A negative ``j_h`` is the gauge theta -> theta - pi of ``|j_h|`` (eps_q,
    eps_p, the band center and the half gap map onto each other), and at
    ``j_h = 0`` the flux drops out; the criticality analysis needs
    ``j_h == j_d``.
    """

    j_h: float
    j_v: float
    j_d: float
    theta: float
    n_rungs: int

    def __post_init__(self) -> None:
        for name in ("j_h", "j_v", "j_d"):
            value = getattr(self, name)
            if not abs(value) <= _MAX_HOPPING:
                raise DomainError(
                    f"{name} must be finite with magnitude at most {_MAX_HOPPING:g}, got {value}: "
                    "larger hoppings overflow the squared band energies of the mode table"
                )
            if 0.0 < abs(value) < _MIN_HOPPING:
                raise DomainError(f"nonzero {name} must have magnitude at least {_MIN_HOPPING:g}, "
                                  f"got {value}: its band energies' squares underflow")
        for name in ("j_v", "j_d"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")
        object.__setattr__(self, "n_rungs", _integer_count(self.n_rungs))
        object.__setattr__(self, "theta", canonical_angle(self.theta))

    def with_theta(self, theta: float) -> "LadderParams":
        """Same ladder with a different flux angle."""
        return LadderParams(self.j_h, self.j_v, self.j_d, theta, self.n_rungs)


@dataclass(frozen=True)
class ModeData:
    """Spectral data at wavenumber(s) ``k``, each field shaped like ``k`` (shifted bands)."""

    k: np.ndarray
    eps_q: np.ndarray
    eps_p: np.ndarray
    eps_qp: np.ndarray
    gamma: np.ndarray
    e_alpha: np.ndarray
    e_beta: np.ndarray
    gap: np.ndarray


def allowed_modes(n_rungs: int) -> np.ndarray:
    """Quantized wavenumbers k_j = 2 pi j / N, j = 0..N-1, of a ladder with N = ``n_rungs``."""
    n = _integer_count(n_rungs)
    return 2.0 * np.pi * np.arange(n) / n


def _band_terms(params: LadderParams, k: np.ndarray, *thetas: float):
    """u = 2 j_h sin k, v = -2 j_h cos k and q = eps_qp at finite ``k``, then per
    flux theta of ``thetas`` a = u sin theta, half gap h = sqrt(q^2 + a^2) and
    band centre v cos theta - j_v as one tuple: the terms of every mode table."""
    if not np.all(np.isfinite(k)):
        raise DomainError("wavenumbers must be finite")
    cos_k = np.cos(k)
    u, v, q = 2.0 * params.j_h * np.sin(k), -2.0 * params.j_h * cos_k, 2.0 * params.j_d * cos_k + params.j_v
    fluxes = [((a := u * np.sin(t)), np.sqrt(q * q + a * a), v * np.cos(t) - params.j_v) for t in thetas]
    return u, v, q, *fluxes


def mode_data(params: LadderParams, k) -> ModeData:
    """All per-wavenumber spectral quantities at scalar or array ``k``.

    ``gamma`` in (-pi, pi] diagonalizes the 2x2 Bloch matrix; the
    two-argument arctangent keeps it defined where the leg energies cross.
    """
    theta = params.theta
    k = np.asarray(k, dtype=float)
    _, _, eps_qp, (_, half_gap, center) = _band_terms(params, k, theta)
    eps_q = 2.0 * params.j_h * np.cos(k - theta)
    eps_p = 2.0 * params.j_h * np.cos(k + theta)
    gamma = np.arctan2(2.0 * eps_qp, eps_q - eps_p)
    e_alpha, e_beta = center - half_gap, center + half_gap
    return ModeData(
        k=k,
        eps_q=eps_q,
        eps_p=eps_p,
        eps_qp=eps_qp,
        gamma=np.where(gamma <= -np.pi, gamma + 2.0 * np.pi, gamma),
        e_alpha=e_alpha,
        e_beta=e_beta,
        gap=e_beta - e_alpha,
    )


def _require_equal_hoppings(params: LadderParams) -> float:
    if not math.isclose(params.j_h, params.j_d, rel_tol=0.0, abs_tol=1e-12):
        raise DomainError(
            f"criticality analysis requires j_h == j_d, got j_h={params.j_h}, j_d={params.j_d}"
        )
    return params.j_h


def _gap_closing_angle(params: LadderParams) -> float:
    """arccos(j_v/2j), once j_h == j_d == j and j_v < 2j are checked."""
    j = _require_equal_hoppings(params)
    if params.j_v >= 2.0 * j:
        raise DomainError(
            f"gap never closes for j_v >= 2j (j_v={params.j_v}, j={j}); no critical wavenumbers"
        )
    return math.acos(params.j_v / (2.0 * j))


def critical_wavenumbers(params: LadderParams) -> tuple[float, float]:
    """Gap-closing wavenumbers (k_c-, k_c+) = pi -/+ arccos(j_v/2j).

    Requires j_h == j_d == j and j_v < 2j; outside that range the gap
    never closes and the request is rejected.
    """
    acos = _gap_closing_angle(params)
    return math.pi - acos, math.pi + acos


def commensurate_base(params: LadderParams, q_max: int = 64, tol: float = 1e-9) -> Optional[int]:
    """Smallest N whose mode grid 2 pi m / N holds both gap-closing wavenumbers.

    The gap-closing angle arccos(j_v/2j)/pi must be a fraction p/q in
    lowest terms with q <= ``q_max``, to within ``tol``; otherwise the
    angle is incommensurate at this resolution and the result is None.
    pi -/+ pi p/q lies on the grid exactly when N (q -/+ p) / 2q is an
    integer, so the base is q when p and q are both odd and 2q otherwise:
    a ladder hosts the gap-closing modes exactly when the base divides
    its size.  ``tol`` must be positive and finite, and q_max^2 tol at
    most 1e-3.
    """
    x = _gap_closing_angle(params) / math.pi
    q_max = _integer_count(q_max, "q_max")
    if not 0.0 < tol < math.inf:  # also refuses nan
        raise DomainError(f"tol must be positive and finite, got {tol}")
    # every angle lies within 1/q^2 of some p/q: of 20000 random angles at tol
    # 1e-9, 0.1% count as rational at q_max^2 tol = 1e-3, 0.6% at 1e-2, 57% at 1
    if q_max * q_max > 1e-3 / tol:  # an exact int-float comparison, never an overflow
        raise DomainError(
            f"q_max = {q_max} is too large for tol = {tol}: q_max^2 * tol must be at most "
            "1e-3, or ever more irrational angles count as rational"
        )
    from fractions import Fraction  # here, not at import: it and decimal cost every run 2 ms
    # 0 < x < 1/2 since j_v > 0, so the fraction is at most 1/2
    frac = Fraction(x).limit_denominator(q_max)
    if frac == 0 or abs(x - float(frac)) >= tol:
        return None
    p, q = frac.numerator, frac.denominator
    return q if (q - p) % 2 == 0 else 2 * q


def _critical_target_base(spec: QuenchSpec, q_max: int, tol: float) -> tuple[Optional[int], bool]:
    """``commensurate_base`` of a quench to a critical flux, and whether it
    divides the ladder size: the zero-mode decision of revival prediction
    and of the finite-size gate.  Any other target is refused."""
    if not is_critical_flux(spec.theta_post):
        raise InvalidQuenchTargetError(
            f"zero-mode analysis needs theta_post at a critical flux (0 or pi), got {spec.theta_post}"
        )
    base = commensurate_base(spec.params, q_max=q_max, tol=tol)
    return base, base is not None and spec.params.n_rungs % base == 0


def group_velocity(params: LadderParams) -> float:
    """|d(gap)/dk| at the gap-closing wavenumbers, for a critical flux.

    Closed form 2*sqrt(4j^2 - j_v^2); identical at both gap-closing
    wavenumbers.
    """
    _gap_closing_angle(params)  # validates j_h == j_d and j_v < 2j
    j = params.j_h
    return 2.0 * math.sqrt(4.0 * j * j - params.j_v * params.j_v)


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
    ``la`` cuts the kernel's cost (measured in docs/formats.md, ``le``).
    """

    times: np.ndarray
    le: np.ndarray
    la: Optional[np.ndarray]
    rate: np.ndarray
    n_rungs: int


def _require_uniform_grid(times: np.ndarray, what: str) -> None:
    """Refuse ``times`` unless their steps agree to 1e-8 relative, the grid
    rule of the cusp and revival detectors (times read back from a CSV
    table of 15 digits pass it)."""
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=0.0):
        raise DomainError(f"{what} requires a uniform time grid")


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

    With the q and, per flux, a and half gap h of ``_band_terms``,
    sin 2 eta = q (a2 - a1) / (h1 h2) and cos 2 eta = (q^2 + a1 a2) / (h1 h2),
    eta = 0 where h1 h2 = 0.  A is sin^2 2 eta if that square is the smaller,
    else 1 - cos^2 2 eta, min(cos^2 eta, sin^2 eta) = sin^2 2 eta /
    (2 (1 + |cos 2 eta|)), and ``ea_*`` is the band centre minus h.
    """
    n = spec.params.n_rungs
    k = allowed_modes(n)[1 : (n + 1) // 2] if ks is None else np.asarray(ks, dtype=float)
    _, _, q, (a1, h1, center1), (a2, h2, center2) = _band_terms(spec.params, k, spec.theta_pre, spec.theta_post)
    hh = h1 * h2
    s = np.divide(q * (a2 - a1), hh, out=np.zeros_like(hh), where=hh > 0.0)
    c = np.divide(q * q + a1 * a2, hh, out=np.ones_like(hh), where=hh > 0.0)
    small = s * s / (2.0 + 2.0 * np.abs(c))
    return ModeArrays(
        k=k,
        amplitude=np.where(s * s <= c * c, s * s, 1.0 - c * c),
        cos2_eta=np.where(c >= 0.0, 1.0 - small, small),
        gap_post=2.0 * h2,
        ea_pre=center1 - h1,
        ea_post=center2 - h2,
    )


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


@functools.cache
def _blas_shutdowns() -> tuple:
    """``blas_thread_shutdown_`` of every OpenBLAS mapped into this process,
    found in /proc/self/maps once per process: the libraries stay loaded,
    and the search took 0.12 ms a park."""
    routines = []
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({ln.split(maxsplit=5)[-1].strip() for ln in maps if "openblas" in ln})
        for path in paths:  # loaded already, so CDLL returns the same instance
            shutdown = getattr(ctypes.CDLL(path), "blas_thread_shutdown_", None)
            if shutdown is not None:  # MKL, BLIS and Accelerate have no such routine
                shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                routines.append(shutdown)
    except OSError:  # no /proc, or a mapped path that is not a library
        pass
    return tuple(routines)


def _park_blas_pool() -> None:
    """Stop numpy's idle OpenBLAS workers, which spin for about 0.1 s of CPU
    after ``import numpy`` and so take a CPU from the echo kernel's threads;
    the pool restarts by itself on the next threaded BLAS call.  ``cli.run``
    calls it (no command calls BLAS), and so does ``_run_pieces`` before it
    starts threads, if no other thread has a Python frame (a thread inside
    a BLAS call keeps its frame)."""
    for shutdown in _blas_shutdowns():
        shutdown()


def _run_pieces(run, size: int, unit: int, workers: int) -> None:
    """``run(lo, hi)`` for contiguous runs [lo, hi) of whole ``unit``-item
    parts of [0, size) (the last may be short), one per worker and at most
    one per part: the first in this thread and the others on threads, after
    ``_park_blas_pool`` if no other thread has a Python frame.  The first
    error of any run is raised here once all runs have stopped."""
    parts = -(-size // unit)
    workers = max(1, min(workers, parts))
    ends = [min(size, parts * i // workers * unit) for i in range(workers + 1)]
    errors = []

    def guarded(lo, hi) -> None:
        try:
            run(lo, hi)
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=piece) for piece in zip(ends[1:-1], ends[2:])]
    if threads and len(sys._current_frames()) == 1:  # so no other thread is inside BLAS
        _park_blas_pool()
    for thread in threads:
        thread.start()
    guarded(ends[0], ends[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _single_particle_matrix(params: LadderParams) -> np.ndarray:
    """Full 2N x 2N hopping matrix of the ladder, shifted by -j_v.

    Basis ordering: upper-leg sites 0..N-1, then lower-leg sites.  With s
    the cyclic shift m -> m + 1, each leg hops by f s + conj(f) s^T, with
    f = -j_h exp(-i theta) on the upper and -j_h exp(i theta) on the lower
    leg, and the legs couple by -j_d (s + s^T) - j_v.
    """
    n = params.n_rungs
    s = np.roll(np.eye(n), 1, axis=0)  # s[m + 1, m] = 1
    fwd = -params.j_h * np.exp(-1j * params.theta), -params.j_h * np.exp(1j * params.theta)
    upper, lower = (f * s + np.conj(f) * s.T for f in fwd)
    rungs = -params.j_d * (s + s.T) - params.j_v * np.eye(n)
    h = np.block([[upper, rungs], [rungs, lower]])
    h -= params.j_v * np.eye(2 * n)
    return h


def exact_le_oracle(spec: QuenchSpec, t):
    """Echo and amplitude of the quench ``spec`` (a ``QuenchSpec``) from an
    exact determinant overlap.

    Fills the N lowest orbitals of the pre-quench single-particle
    matrix, evolves with the post-quench matrix, and returns
    (|det|^2, det) of the occupied-orbital overlap: floats for a scalar
    ``t``, arrays for an array of finite times, negative ones too.  The two
    ``eigh`` calls and the projection of the occupied orbitals on the
    post-quench ones run once per call, then one N x N determinant per
    time.  Limited to ``ORACLE_MAX_RUNGS``: one call with six times took
    0.3 s at 256 rungs and 2.4 s at 512 (2 vCPUs), nearly all of it in the
    two ``eigh`` calls.  The mode-product formula must agree exactly.
    """
    n = spec.params.n_rungs
    if n > ORACLE_MAX_RUNGS:
        raise DomainError(
            f"oracle limited to n_rungs <= {ORACLE_MAX_RUNGS}, got {n}"
        )
    times = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(times)):
        raise DomainError("times must be finite")
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
