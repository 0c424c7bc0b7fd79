import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "curveavg"

# what a sweep process must not load at start-up: numpy.polynomial (the
# package has its own Gauss-Legendre rules and Horner loop), fractions and
# decimal (exact constants are single float divisions), difflib (only a
# config error's hint needs it) and the process pool (only --jobs > 1)
UNWANTED = ("numpy.polynomial", "fractions", "decimal", "difflib",
            "concurrent.futures", "multiprocessing")


def test_no_module_imports_another_modules_private_names():
    # a module's underscore names are its own: another module that needs
    # one needs it public
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.endswith("__")]
    assert not found, found


def test_cli_import_loads_only_what_a_sweep_runs():
    # the modules that importing the command line adds to those of numpy,
    # in a fresh interpreter
    script = ("import json, sys\n"
              "import numpy\n"
              "before = set(sys.modules)\n"
              "import curveavg.cli\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = json.loads(out)
    assert "curveavg.cli" in added
    loaded = [m for m in added
              if any(m == u or m.startswith(u + ".") for u in UNWANTED)]
    assert not loaded, loaded
