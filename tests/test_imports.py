"""Importing the package and running the cheap CLI commands loads no scipy.

scipy.optimize is imported only where a solver needs it (the theta LP on a
hand-made support, the multistart on faces with three or more vertices), so
a fresh process pays for it only then.  Each check runs in its own
interpreter, because the test session itself has scipy loaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_package_and_cli_commands_load_no_scipy(tmp_path):
    instance = tmp_path / "binary.json"
    instance.write_text(json.dumps(BINARY))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(instance)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == ["import []"] + [
        f"{name} 0 []" for name in ("clt", "ot", "ecp", "exact-gn", "sample",
                                    "converge")]
