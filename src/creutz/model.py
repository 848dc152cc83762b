"""Creutz ladder: Bloch Hamiltonian, quasiparticle bands, and commensurability.

The ladder has two legs of ``n_rungs`` sites with periodic boundary
conditions, horizontal hopping ``j_h`` carrying a Peierls phase
``exp(+/- i theta)``, vertical hopping ``j_v``, and diagonal hopping
``j_d``.  The flux per plaquette is ``theta/pi``.

All band energies here use the shifted convention: the constant ``j_v``
is subtracted from both quasiparticle branches.  Gaps and energy
differences are unaffected by the shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "LadderParams",
    "ModeData",
    "RationalAngle",
    "allowed_modes",
    "canonical_angle",
    "commensurate_base",
    "critical_wavenumbers",
    "detect_rational_angle",
    "group_velocity",
    "is_commensurate",
    "is_critical_flux",
    "mode_data",
]

_CRITICAL_TARGET_TOL = 1e-12
# Band energies reach about 3 |j|; squaring them must stay below the float
# overflow threshold (~1.8e308), with room for sums over modes.
_MAX_HOPPING = 1e150


def _rung_count(n_rungs) -> int:
    """``n_rungs`` as an int; non-finite, fractional or < 2 values are rejected."""
    # the chained comparison is False for nan and inf, so int() never sees them
    if not 2 <= n_rungs < math.inf or int(n_rungs) != n_rungs:
        raise DomainError(f"n_rungs must be an integer >= 2, got {n_rungs}")
    return int(n_rungs)


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
    with magnitude at most 1e150, ``j_v`` and ``j_d`` positive; ``n_rungs``
    is the number of sites per leg.  A negative ``j_h`` is the gauge
    theta -> theta - pi of ``|j_h|`` (eps_q, eps_p, the band center and
    the half gap map onto each other), and at ``j_h = 0`` the flux drops
    out; the criticality analysis needs ``j_h == j_d``.
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
        if self.j_v <= 0.0:
            raise DomainError(f"j_v must be positive, got {self.j_v}")
        if self.j_d <= 0.0:
            raise DomainError(f"j_d must be positive, got {self.j_d}")
        object.__setattr__(self, "n_rungs", _rung_count(self.n_rungs))
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


@dataclass(frozen=True)
class RationalAngle:
    """The gap-closing angle arccos(j_v/2j)/pi written as p/q in lowest terms."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not (0 < self.p < self.q):
            raise DomainError(f"need 0 < p < q, got p={self.p}, q={self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError(f"p={self.p}, q={self.q} are not coprime")


def allowed_modes(n_rungs: int) -> np.ndarray:
    """Quantized wavenumbers k_j = 2 pi j / N, j = 0..N-1, of a ladder with N = ``n_rungs``."""
    n = _rung_count(n_rungs)
    return 2.0 * np.pi * np.arange(n) / n


def mode_data(params: LadderParams, k) -> ModeData:
    """All per-wavenumber spectral quantities at scalar or array ``k``.

    ``gamma`` in (-pi, pi] diagonalizes the 2x2 Bloch matrix; the
    two-argument arctangent keeps it defined where the leg energies cross.
    """
    return _mode_data_at(params, params.theta, k)


def _mode_data_at(params: LadderParams, theta, k) -> ModeData:
    """``mode_data`` at flux ``theta`` in place of ``params.theta``.

    ``theta`` must be canonical.  A column of angles against a row of
    ``k`` gives one table row per angle, from the same expressions.
    """
    k = np.asarray(k, dtype=float)
    eps_q = 2.0 * params.j_h * np.cos(k - theta)
    eps_p = 2.0 * params.j_h * np.cos(k + theta)
    eps_qp = 2.0 * params.j_d * np.cos(k) + params.j_v
    gamma = np.arctan2(2.0 * eps_qp, eps_q - eps_p)
    half_gap = np.sqrt(eps_qp**2 + (2.0 * params.j_h * np.sin(k) * np.sin(theta)) ** 2)
    center = -2.0 * params.j_h * np.cos(k) * np.cos(theta) - params.j_v
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


def critical_wavenumbers(params: LadderParams) -> tuple[float, float]:
    """Gap-closing wavenumbers (k_c-, k_c+) = pi -/+ arccos(j_v/2j).

    Requires j_h == j_d == j and j_v < 2j; outside that range the gap
    never closes and the request is rejected.
    """
    j = _require_equal_hoppings(params)
    if params.j_v >= 2.0 * j:
        raise DomainError(
            f"gap never closes for j_v >= 2j (j_v={params.j_v}, j={j}); no critical wavenumbers"
        )
    acos = math.acos(params.j_v / (2.0 * j))
    return math.pi - acos, math.pi + acos


def detect_rational_angle(
    params: LadderParams, q_max: int = 64, tol: float = 1e-9
) -> Optional[RationalAngle]:
    """Recognize arccos(j_v/2j)/pi as a rational p/q with q <= q_max.

    Returns None when no fraction with denominator at most ``q_max``
    approximates the angle to within ``tol``; that signals an
    incommensurate angle at this resolution.  ``tol`` must be positive
    and finite.
    """
    critical_wavenumbers(params)  # validates j_h == j_d and j_v < 2j
    if q_max < 2:
        raise DomainError(f"q_max must be >= 2, got {q_max}")
    if not 0.0 < tol < math.inf:  # also refuses nan
        raise DomainError(f"tol must be positive and finite, got {tol}")
    x = math.acos(params.j_v / (2.0 * params.j_h)) / math.pi
    frac = Fraction(x).limit_denominator(int(q_max))
    if frac <= 0 or frac >= 1 or abs(x - float(frac)) >= tol:
        return None
    return RationalAngle(p=frac.numerator, q=frac.denominator)


def commensurate_base(angle: RationalAngle) -> int:
    """Smallest N that is an integer multiple of both 2q/(q-p) and 2q/(q+p).

    A ladder size hosts the gap-closing modes exactly when this base
    divides it.
    """
    two_q = 2 * angle.q
    need_minus = two_q // math.gcd(two_q, angle.q - angle.p)
    need_plus = two_q // math.gcd(two_q, angle.q + angle.p)
    return math.lcm(need_minus, need_plus)


def is_commensurate(angle: RationalAngle, n_rungs: int) -> bool:
    """True when a ladder of ``n_rungs`` sites hosts the gap-closing modes."""
    return n_rungs % commensurate_base(angle) == 0


def group_velocity(params: LadderParams) -> float:
    """|d(gap)/dk| at the gap-closing wavenumbers, for a critical flux.

    Closed form 2*sqrt(4j^2 - j_v^2); identical at both gap-closing
    wavenumbers.
    """
    critical_wavenumbers(params)  # validates j_h == j_d and j_v < 2j
    j = params.j_h
    return 2.0 * math.sqrt(4.0 * j * j - params.j_v * params.j_v)
