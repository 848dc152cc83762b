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

# The modules whose ``__all__`` lists make up the public names, each after
# the ones it imports, so that looking a name up imports no module its
# owner does not need.
_PUBLIC_MODULES = ("errors", "model", "quench", "thermo", "dqpt", "revival")


def __getattr__(name: str):
    """Submodules and public names, each module imported on first use (PEP 562)."""
    if name == "__all__":
        return sorted(n for module in _PUBLIC_MODULES for n in importlib.import_module(f".{module}", __name__).__all__)
    # a submodule (``from creutz import cli`` asks here first): no search
    if name.isidentifier() and find_spec(f"{__name__}.{name}"):
        return importlib.import_module(f".{name}", __name__)
    if not name.startswith("_"):
        for module in _PUBLIC_MODULES:
            owner = importlib.import_module(f".{module}", __name__)
            if name in owner.__all__:
                return getattr(owner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
