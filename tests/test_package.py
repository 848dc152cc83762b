"""The public surface of the package: the union of the modules' ``__all__``
lists; and the size of each module's source."""

import importlib
import tokenize
from pathlib import Path

import numpy as np
import pytest

import creutz

MODULES = ("dqpt", "errors", "model", "quench", "revival", "thermo")
# one-line views of ``mode_data``, a wrapper of the mode grid, and the
# rational-angle path that ``commensurate_base`` replaced, removed
DELETED = ("ModeGrid", "RationalAngle", "band_energies", "bogoliubov_angle", "detect_rational_angle",
           "gap", "ground_state_energy", "is_commensurate")


def module_lists():
    return {name: importlib.import_module(f"creutz.{name}").__all__ for name in MODULES}


def test_all_is_the_union_of_the_module_lists():
    lists = module_lists()
    union = set().union(*lists.values())
    assert sorted(creutz.__all__) == sorted(union)
    # no name is exported by two modules
    assert sum(len(names) for names in lists.values()) == len(union)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves_to_its_module(module):
    owner = importlib.import_module(f"creutz.{module}")
    for name in owner.__all__:
        assert getattr(creutz, name) is getattr(owner, name)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_absent(name):
    assert name not in creutz.__all__
    assert not hasattr(creutz, name)
    assert not hasattr(creutz.model, name)


def test_removed_members():
    assert not hasattr(creutz.WorkDistribution, "outcomes")
    ks = creutz.allowed_modes(5)
    assert type(ks) is np.ndarray and ks.shape == (5,)


PACKAGE = Path(creutz.__file__).resolve().parent
# CPython's parser preallocates its tokens in doubling steps: a module of
# more than 4096 tokens takes another step when it is compiled, about 230 KB
# of peak memory in every process that compiles it from source
PARSER_TOKENS = 4096


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_stays_under_the_parser_token_step(path):
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with path.open("rb") as source:
        count = sum(token.type not in skipped for token in tokenize.tokenize(source.readline))
    assert count < PARSER_TOKENS, (
        f"{path.name}: {count} parser tokens, {PARSER_TOKENS - count} of headroom under {PARSER_TOKENS}")
