"""The package imports its modules on first use: each command loads only its own."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import creutz

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# the modules every command loads: the CLI, its config and output layers
BASE = {"cli", "errors", "model", "serialize"}
COMMANDS = {
    "spectrum": set(),
    "le": {"quench"},
    "revival": {"quench", "revival"},
    "dqpt": {"quench", "dqpt"},
    "work": {"thermo"},
    "scan": {"thermo"},
}
# each module that owns public names, and the modules it imports
IMPORTS = {
    "errors": set(),
    "model": {"errors"},
    "quench": {"errors", "model"},
    "thermo": {"errors", "model"},
    "dqpt": {"errors", "model"},
    "revival": {"errors", "model"},
}


def run_python(script, *args):
    """What a fresh interpreter prints running ``script`` on ``args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(script, *args):
    """The ``creutz.*`` modules a fresh interpreter holds after ``script``."""
    script += "\nimport sys\nprint(' '.join(m[7:] for m in sys.modules if m.startswith('creutz.')))\n"
    return set(run_python(script, *args).split())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_its_modules(tmp_path, command):
    # cli.run wrapped as a benchmark step process wraps it
    script = (
        "import sys\n"
        "from creutz import cli\n"
        "real_run = cli.run\n"
        "cli.run = lambda config: real_run(config)\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
    )
    argv = [command, "--set", "n_rungs=20", "--set", "t_max=2", "--set", "n_theta2=5",
            "--out", str(tmp_path / "out.csv")]
    assert loaded_after(script, *argv) == BASE | COMMANDS[command]


def test_a_submodule_lookup_imports_nothing_else():
    assert loaded_after("import creutz") == set()
    assert loaded_after("from creutz import cli") == BASE
    assert loaded_after("import creutz\ncreutz.model") == {"errors", "model"}


def test_a_name_imports_its_module_and_what_that_imports():
    assert loaded_after("from creutz import LadderParams") == {"errors", "model"}
    assert loaded_after("from creutz import QuenchSpec, loschmidt_echo") == {"errors", "model", "quench"}
    # every public name, each from a package imported afresh in one interpreter
    script = (
        "import sys\n"
        "for name in sys.argv[1:]:\n"
        "    for module in [m for m in sys.modules if m == 'creutz' or m.startswith('creutz.')]:\n"
        "        del sys.modules[module]\n"
        "    exec(f'from creutz import {name}')\n"
        "    print(name, *(m[7:] for m in sys.modules if m.startswith('creutz.')))\n"
    )
    loaded = {name: set(rest) for name, *rest in map(str.split, run_python(script, *creutz.__all__).splitlines())}
    owners = {name: module for module in IMPORTS for name in importlib.import_module(f"creutz.{module}").__all__}
    assert loaded == {name: {owner} | IMPORTS[owner] for name, owner in owners.items()}


def test_the_owner_table_is_the_union_of_the_modules_all_lists():
    # every module with an ``__all__`` list, and no other, owns public names
    modules = [importlib.import_module(f"creutz.{info.name}") for info in pkgutil.iter_modules(creutz.__path__)]
    owning = {module.__name__[7:]: sorted(module.__all__) for module in modules if hasattr(module, "__all__")}
    assert {name: sorted(names.split()) for name, names in creutz._PUBLIC.items()} == owning
    assert set(IMPORTS) == set(owning)


def test_the_consumers_of_the_mode_table_do_not_load_the_kernel():
    # dqpt, revival and thermo read the quench's types and table from model
    loaded = loaded_after("from creutz import dqpt, revival, thermo")
    assert loaded == {"errors", "model", "dqpt", "revival", "thermo"}


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from creutz import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == creutz.__all__
    assert all(namespace[name] is getattr(creutz, name) for name in creutz.__all__)
    for name in creutz.__all__:
        single = {}
        exec(f"from creutz import {name}", single)
        assert single[name] is namespace[name]


def test_modules_and_unknown_names():
    assert creutz.thermo.work_stats is creutz.work_stats
    with pytest.raises(AttributeError):
        creutz.no_such_name
    with pytest.raises(ImportError):
        exec("from creutz import no_such_name", {})
