"""Quench dynamics of the Creutz ladder.

A two-leg flux ladder of spinless fermions solved in closed form:
quasiparticle bands, the Loschmidt echo after a sudden flux quench and
its revival structure, Fisher zeros and rate-function cusps, and the
quench work statistics.  An exact determinant-overlap oracle validates
the closed-form echo for small ladders.
"""

import importlib
from importlib.util import find_spec

# The single source of the package version: pyproject.toml and the
# output headers read it from here.
__version__ = "0.1.0"

# Each module's ``__all__`` list (a test ties the two): looking a public
# name up imports its owner alone, and with it only the modules the owner
# imports.
_PUBLIC = {
    "errors": "ConfigError CreutzError DomainError IncommensurateAngleError InvalidQuenchTargetError NoDqptError "
              "NoRevivalError",
    "model": "LESeries LadderParams ModeArrays ModeData QuenchSpec allowed_modes canonical_angle commensurate_base "
             "critical_wavenumbers exact_le_oracle group_velocity is_critical_flux mode_arrays mode_data",
    "quench": "loschmidt_echo",
    "thermo": "WorkDistribution WorkStats scan_theta2 work_distribution work_stats",
    "dqpt": "CriticalMode FisherZeroLine detect_cusps dqpt_possible finite_size_dqpt_gate fisher_zero_lines "
            "predict_dqpt_times solve_critical_modes",
    "revival": "RevivalDetection RevivalPrediction detect_revivals predict_revival",
}
_OWNERS = {name: module for module, names in _PUBLIC.items() for name in names.split()}


def __getattr__(name: str):
    """Submodules and public names, each module imported on first use (PEP 562)."""
    if name == "__all__":
        return sorted(_OWNERS)
    if name in _OWNERS:
        return getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    # a submodule (``from creutz import cli`` asks here first)
    if name.isidentifier() and find_spec(f"{__name__}.{name}"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
