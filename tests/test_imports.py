"""Importing the package loads no layer, and each CLI command loads only
its own layers and no scipy.

The package resolves its public names and its layer modules on first use,
and each CLI command imports its layers when it runs.  scipy.optimize is
imported only where a solver needs it (the theta LP on a hand-made support,
the multistart on faces with three or more vertices), so a fresh process
pays for it only then.  The process checks each run in a fresh
interpreter, because the test session itself has every layer and scipy
loaded.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strassen_lab
from test_cli import BINARY

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import contextlib, io, sys
import strassen_lab, strassen_lab.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print("import", scipy_loaded())
path = sys.argv[1]
commands = [
    ["clt", "--a", "0.2", "--b", "0.4", "--oracle", "--delta-grid", "0:2:3"],
    ["ot", path, "--certify"],
    ["ecp", path, "--oracle", "--exact"],
    ["exact-gn", path, "--oracle"],
    ["sample", path, "--seed", "7", "--count", "5"],
    ["converge", path, "--mode", "lower", "--alpha", "0.2", "--n", "4:17:doubling"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = strassen_lab.cli.main(argv)
    print(argv[0], code, scipy_loaded())
"""

#: One command in a fresh process: its exit code and every loaded module.
COMMAND_PROBE = """
import contextlib, io, json, sys
from strassen_lab import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""

#: A bare import, then a layer module resolved by its name alone.
PACKAGE_PROBE = """
import json, sys
import strassen_lab

before = sorted(m for m in sys.modules
                if m == "numpy" or m.startswith("strassen_lab."))
lattice = strassen_lab.lattice
print(json.dumps([before, lattice is sys.modules["strassen_lab.lattice"],
                  lattice.gn_tails is strassen_lab.gn_tails]))
"""


def _fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_and_cli_commands_load_no_scipy(tmp_path):
    instance = tmp_path / "binary.json"
    instance.write_text(json.dumps(BINARY))
    lines = _fresh(PROBE, str(instance)).splitlines()
    assert lines == ["import []"] + [
        f"{name} 0 []" for name in ("clt", "ot", "ecp", "exact-gn", "sample",
                                    "converge")]


def test_bare_import_loads_no_layer_and_resolves_one_by_name():
    before, same_module, same_name = json.loads(_fresh(PACKAGE_PROBE))
    assert before == []
    assert same_module and same_name


NOT_LOADED = {
    "clt": ("transport", "flow", "lattice", "ldp", "mdp"),
    "ot": ("lattice", "ldp", "mdp", "clt"),
    "ecp": ("lattice", "ldp", "mdp", "clt"),
    "exact-gn": ("ldp", "mdp", "clt"),
    "sample": ("ldp", "mdp", "clt"),
    "converge": ("ldp", "mdp", "clt"),
}


@pytest.mark.parametrize("name", sorted(NOT_LOADED))
def test_each_command_loads_only_its_layers(tmp_path, name):
    path = tmp_path / "binary.json"
    path.write_text(json.dumps(BINARY))
    argv = {
        "clt": ["clt", "--a", "0.2", "--b", "0.4", "--oracle",
                "--delta-grid", "-3:3:41"],
        "ot": ["ot", str(path), "--certify"],
        "ecp": ["ecp", str(path), "--oracle"],
        "exact-gn": ["exact-gn", str(path), "--oracle"],
        "sample": ["sample", str(path), "--seed", "7", "--count", "5"],
        "converge": ["converge", str(path), "--mode", "lower", "--alpha",
                     "0.2", "--n", "4:17:doubling"],
    }[name]
    code, modules = json.loads(_fresh(COMMAND_PROBE, json.dumps(argv)))
    assert code == 0
    loaded = {m.split(".", 1)[1] for m in modules
              if m.startswith("strassen_lab.")}
    assert "cli" in loaded
    assert not loaded & set(NOT_LOADED[name])
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


class TestLazyNamespace:
    def test_every_public_name_is_its_home_attribute(self):
        assert strassen_lab.__all__ == sorted(strassen_lab.__all__)
        assert len(strassen_lab.__all__) == 62
        for name in strassen_lab.__all__:
            home = importlib.import_module(
                f"strassen_lab.{strassen_lab._HOME[name]}")
            assert getattr(strassen_lab, name) is getattr(home, name), name

    def test_dir_lists_every_public_name_and_layer(self):
        listed = dir(strassen_lab)
        assert set(strassen_lab.__all__) <= set(listed)
        assert {"cli", "clt", "flow", "lattice", "ldp", "mdp",
                "transport"} <= set(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            strassen_lab.no_such_name
        assert not hasattr(strassen_lab, "_no_such_private")

    def test_star_import(self):
        namespace = {}
        exec("from strassen_lab import *", namespace)
        assert set(strassen_lab.__all__) <= set(namespace)
        assert namespace["gn_tails"] is strassen_lab.lattice.gn_tails
