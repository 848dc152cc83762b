"""The public surface of the package: the union of the modules' ``__all__`` lists."""

import importlib

import numpy as np
import pytest

import creutz

MODULES = ("dqpt", "errors", "model", "quench", "revival", "thermo")
# one-line views of ``mode_data`` and a wrapper of the mode grid, removed
DELETED = ("ModeGrid", "band_energies", "bogoliubov_angle", "gap", "ground_state_energy")


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
