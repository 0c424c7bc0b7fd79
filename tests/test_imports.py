import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "curveavg"

# what a sweep process must not load at start-up: numpy.polynomial (the
# package has its own Gauss-Legendre rules and Horner loop), fractions and
# decimal (exact constants are single float divisions), difflib (only a
# config error's hint needs it), the forked cell runner (only --jobs > 1),
# the oracles and verify commands (only cone-verify, multiplier-verify and
# synthesize) and a process pool, which no sweep loads at all: --jobs > 1
# forks one child per cell
POOL = ("concurrent.futures", "multiprocessing")
VERIFY = ("curveavg.verify",)
UNWANTED = ("numpy.polynomial", "fractions", "decimal", "difflib",
            "curveavg.parallel") + VERIFY + POOL


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


def _loaded(modules, unwanted):
    return [m for m in modules
            if any(m == u or m.startswith(u + ".") for u in unwanted)]


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


def test_every_public_name_has_one_home():
    # each module's __all__ names what it has, no name is exported by two
    # modules (a stale re-export after a move), and every name of the
    # package's __all__ resolves
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"curveavg.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.name}: {name}"
            homes.setdefault(name, []).append(path.stem)
    shared = {name: where for name, where in homes.items() if len(where) > 1}
    assert not shared, shared
    package = importlib.import_module("curveavg")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, missing


def test_cli_import_loads_only_what_a_sweep_runs():
    # the modules that importing the command line adds to those of numpy,
    # in a fresh interpreter
    script = ("import json, sys\n"
              "import numpy\n"
              "before = set(sys.modules)\n"
              "import curveavg.cli\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-c", script], env=_env(),
                         check=True, capture_output=True, text=True).stdout
    added = json.loads(out)
    assert "curveavg.cli" in added
    loaded = _loaded(added, UNWANTED)
    assert not loaded, loaded


def _n3_sweep(tmp_path, prelude=""):
    """A --jobs 2 sweep of the n3 workload at lambda = 4 8 16 in a fresh
    interpreter, after `prelude`: its exit status, its modules and its
    thread count when the sweep is done."""
    text = (SRC.parents[1] / "perfbench" / "workloads" / "n3.cfg").read_text(
        encoding="utf-8")
    assert "lambdas = 4 32 64" in text
    cfg = tmp_path / "n3.cfg"
    cfg.write_text(text.replace("lambdas = 4 32 64", "lambdas = 4 8 16"),
                   encoding="utf-8")
    script = (prelude +
              "import json, sys, threading\n"
              "from curveavg.cli import main\n"
              "status = main(['sweep', '--config', sys.argv[1], '--out',\n"
              "               sys.argv[2], '--jobs', '2'])\n"
              "print(json.dumps([status, sorted(sys.modules),\n"
              "                  threading.active_count()]))\n")
    out = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        env=_env(), check=True, capture_output=True, text=True,
        timeout=300).stdout
    return json.loads(out.splitlines()[-1])


def test_parallel_sweep_loads_no_pool_and_starts_no_thread(tmp_path):
    # its cells run in forked children, so the process loads no pool and
    # is still on its one thread when the sweep is done; nor does it load
    # the verification code
    status, modules, threads = _n3_sweep(tmp_path)
    assert status == 0
    assert not _loaded(modules, POOL), _loaded(modules, POOL)
    assert not _loaded(modules, VERIFY), _loaded(modules, VERIFY)
    assert threads == 1


# the numpy.linalg routines that call LAPACK; norm is a ufunc reduction
LAPACK = ("lstsq", "solve", "inv", "pinv", "svd", "qr", "det", "eig", "eigh",
          "cholesky")


def test_sweep_runs_no_lapack_routine(tmp_path):
    # on the moment curve neither the cells (forked from the patched
    # process) nor the slope fits call one, so none pages LAPACK in
    prelude = ("import numpy.linalg\n"
               "def refuse(*args, **kwargs):\n"
               "    raise AssertionError('a LAPACK routine ran')\n"
               f"for name in {LAPACK!r}:\n"
               "    setattr(numpy.linalg, name, refuse)\n")
    status, _, _ = _n3_sweep(tmp_path, prelude)
    assert status == 0
