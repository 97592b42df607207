"""The prose docs cite only what exists.

Every backticked repository path (under ``src/``, ``tests/``,
``examples/``, ``benchmarks/`` or ``perfbench/``) in the docs below must
exist, and every backticked ``repro.``-qualified name must import or
resolve as an attribute.  A change that deletes or renames a file or a
name then has to fix the docs that cite it.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "perfbench/README.md"]
CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: a path up to whitespace, a ``:line`` or a ``::test`` suffix.
PATH = re.compile(r"(?:src|tests|examples|benchmarks|perfbench)/[^\s:]*")
#: ``repro.a.b`` or ``repro.a.b:Attr``, ignoring a trailing call.
NAME = re.compile(r"repro(?:\.\w+)+(?::\w+)?")


def cited(doc, pattern):
    spans = CODE_SPAN.findall((REPO / doc).read_text(encoding="utf-8"))
    return sorted({m.group(0) for m in map(pattern.match, spans) if m})


def exists(path):
    if "<" in path:  # a template such as perfbench/out/<workload>.npz
        return (REPO / path.split("<")[0]).parent.is_dir()
    if "*" in path:
        return any(REPO.glob(path))
    return (REPO / path).exists()


def resolves(name):
    dotted, _, attr = name.partition(":")
    parts = dotted.split(".") + ([attr] if attr else [])
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    assert not [path for path in cited(doc, PATH) if not exists(path)]


@pytest.mark.parametrize("doc", DOCS)
def test_cited_names_resolve(doc):
    assert not [name for name in cited(doc, NAME) if not resolves(name)]
