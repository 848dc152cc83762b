"""Loschmidt amplitude and echo after a sudden flux quench.

The flux is changed instantaneously from ``theta_pre`` to ``theta_post``
with the system prepared in the lower-band-filled state of the
pre-quench ladder.  Because the quench conserves the wavenumber, the
echo factorizes over modes:

    le(t) = prod_k [1 - A_k sin^2(gap_k t / 2)]

with ``gap_k`` the post-quench band gap and ``A_k`` an oscillation
amplitude fixed by the rotation between pre- and post-quench
eigenbases.  An exact determinant overlap on the full single-particle
matrix provides an independent check for small ladders.
"""

from __future__ import annotations

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

ORACLE_MAX_RUNGS = 12


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
    amplitude (roughly a fourfold saving on large grids).
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
        ks = allowed_modes(spec.params.n_rungs).wavenumbers
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


def loschmidt_echo(
    spec: QuenchSpec, times, include_la: bool = True, chunk_elements: int = 8_000_000
) -> LESeries:
    """Echo, amplitude, and rate function on the given time grid.

    Per-mode log factors are accumulated in chunks over the time axis so
    large ladders and long grids stay within memory.  Pass
    ``include_la=False`` to skip the complex amplitude when only the
    echo or rate function is needed.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a one-dimensional array")
    if times.size and (not np.all(np.isfinite(times)) or times.min() < 0.0):
        raise DomainError("times must be non-negative and finite")

    _, amplitude, cos2, gap_post, _, ea_post = mode_arrays(spec)
    n = spec.params.n_rungs
    sin2 = 1.0 - cos2
    log_le = np.empty(times.size)
    log_la = np.empty(times.size, dtype=complex) if include_la else None
    chunk = max(1, chunk_elements // max(1, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, times.size, chunk):
            t = times[lo : lo + chunk, None]
            phase = gap_post[None, :] * t
            factors = 1.0 - amplitude[None, :] * np.sin(0.5 * phase) ** 2
            log_le[lo : lo + chunk] = np.sum(np.log(factors), axis=1)
            if log_la is not None:
                la_factors = cos2[None, :] + sin2[None, :] * np.exp(-1j * phase)
                log_la[lo : lo + chunk] = np.sum(
                    -1j * ea_post[None, :] * t + np.log(la_factors), axis=1
                )
        le = np.exp(log_le)
        rate = np.where(np.isneginf(log_le), np.inf, -log_le / n)
        la = np.exp(log_la) if log_la is not None else None
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
    (|det|^2, det) of the occupied-orbital overlap.  Limited to small
    ladders; the mode-product formula must agree exactly.
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
