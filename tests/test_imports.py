import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "curveavg"


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
