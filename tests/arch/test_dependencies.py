"""The runtime depends on the standard library and numpy only.

``pyproject.toml`` declares numpy and nothing else, so a top-level
import of any other third-party package under ``src/repro`` breaks an
install that follows it.  Imports guarded inside functions are checked
too: a CLI command that dies on import is as broken.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def imported_packages(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_stdlib_numpy_or_repro():
    foreign = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in imported_packages(path)
        if name not in ALLOWED
    ]
    assert not foreign, foreign
