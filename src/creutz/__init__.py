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

# The public names are those of each module's ``__all__``.
from . import dqpt, errors, model, quench, revival, thermo
from .dqpt import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .quench import *  # noqa: F401,F403
from .revival import *  # noqa: F401,F403
from .thermo import *  # noqa: F401,F403

__all__ = sorted(
    name for module in (dqpt, errors, model, quench, revival, thermo) for name in module.__all__
)
