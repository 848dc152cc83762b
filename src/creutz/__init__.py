"""Quench dynamics of the Creutz ladder.

A two-leg flux ladder of spinless fermions solved in closed form:
quasiparticle bands, the Loschmidt echo after a sudden flux quench and
its revival structure, Fisher zeros and rate-function cusps, and the
quench work statistics.  An exact determinant-overlap oracle validates
the closed-form echo for small ladders.
"""

# The single source of the package version: pyproject.toml and the
# output headers read it from here.
__version__ = "0.1.0"

from .dqpt import (
    CriticalMode,
    FisherZeroLine,
    critical_mode_residual,
    detect_cusps,
    dqpt_possible,
    finite_size_dqpt_gate,
    fisher_zero_lines,
    predict_dqpt_times,
    solve_critical_modes,
)
from .errors import (
    ConfigError,
    CreutzError,
    DomainError,
    IncommensurateAngleError,
    InvalidQuenchTargetError,
    NoDqptError,
    NoRevivalError,
)
from .model import (
    LadderParams,
    ModeData,
    ModeGrid,
    RationalAngle,
    allowed_modes,
    band_energies,
    bogoliubov_angle,
    canonical_angle,
    commensurate_base,
    critical_wavenumbers,
    detect_rational_angle,
    gap,
    group_velocity,
    ground_state_energy,
    is_commensurate,
    is_critical_flux,
    mode_data,
)
from .quench import (
    LESeries,
    ModeArrays,
    QuenchSpec,
    exact_le_oracle,
    loschmidt_echo,
    mode_arrays,
)
from .revival import (
    RevivalDetection,
    RevivalPrediction,
    detect_revivals,
    predict_revival,
)
from .thermo import (
    WorkDistribution,
    WorkStats,
    scan_theta2,
    work_distribution,
    work_stats,
)

__all__ = [
    "ConfigError",
    "CreutzError",
    "CriticalMode",
    "DomainError",
    "FisherZeroLine",
    "IncommensurateAngleError",
    "InvalidQuenchTargetError",
    "LESeries",
    "LadderParams",
    "ModeData",
    "ModeArrays",
    "ModeGrid",
    "NoDqptError",
    "NoRevivalError",
    "QuenchSpec",
    "RationalAngle",
    "RevivalDetection",
    "RevivalPrediction",
    "WorkDistribution",
    "WorkStats",
    "allowed_modes",
    "band_energies",
    "bogoliubov_angle",
    "canonical_angle",
    "commensurate_base",
    "critical_mode_residual",
    "critical_wavenumbers",
    "detect_cusps",
    "detect_rational_angle",
    "detect_revivals",
    "dqpt_possible",
    "exact_le_oracle",
    "finite_size_dqpt_gate",
    "fisher_zero_lines",
    "gap",
    "group_velocity",
    "ground_state_energy",
    "is_commensurate",
    "is_critical_flux",
    "loschmidt_echo",
    "mode_arrays",
    "mode_data",
    "predict_dqpt_times",
    "predict_revival",
    "scan_theta2",
    "solve_critical_modes",
    "work_distribution",
    "work_stats",
]
