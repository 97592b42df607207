"""Every docstring example under ``src/repro`` runs and prints what it shows.

An example that stops matching its code is documentation that lies;
``doctest`` runs each module that holds one, as ``python -m doctest``
would.
"""

import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def modules_with_examples():
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            names.append(".".join(parts))
    return names


MODULES = modules_with_examples()


def test_examples_exist():
    assert MODULES


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name), report=False)
    assert result.attempted
    assert not result.failed, f"{result.failed} of {result.attempted} examples fail"
