"""The prose docs cite only what exists.

Every backticked repository path (under ``src/``, ``tests/``,
``examples/``, ``benchmarks/`` or ``perfbench/``) in the docs below must
exist, and every backticked ``repro.``-qualified name must import or
resolve as an attribute, and every ``repro <cmd> [<sub>] --flag`` in a
code span or a fenced block must name a subcommand and options (long
``--flag`` and short ``-f`` alike) that ``repro.cli.build_parser()``
has.  A change that deletes or renames a
file, a name, a subcommand or a flag then has to fix the docs that cite
it.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[2]
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "perfbench/README.md"]
CODE_SPAN = re.compile(r"`([^`\n]+)`")
#: a path up to whitespace, a ``:line`` or a ``::test`` suffix.
PATH = re.compile(r"(?:src|tests|examples|benchmarks|perfbench)/[^\s:]*")
#: ``repro.a.b`` or ``repro.a.b:Attr``, ignoring a trailing call.
NAME = re.compile(r"repro(?:\.\w+)+(?::\w+)?")
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
ANY_SPAN = re.compile(r"`([^`]+)`")
#: the words after ``repro`` (not ``from repro import``) up to a comment,
#: pipe, redirect, command separator or the end of a code span.
#: ``--long`` or ``-s``, not a negative number or a lone ``-``.
OPTION = re.compile(r"--?[A-Za-z]")
INVOCATION = re.compile(r"(?<![\w./-])(?<!from )repro[ \t]+([^\n#|;&>`]*)")


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


def code_lines(doc):
    """Each logical line of a fenced block (``\\`` continuations joined)
    and each inline code span, as one line."""
    text = (REPO / doc).read_text(encoding="utf-8")
    for block in FENCE.findall(text):
        yield from block.replace("\\\n", " ").splitlines()
    for span in ANY_SPAN.findall(FENCE.sub("", text)):
        yield span.replace("\n", " ")


# ``subcommands`` and ``unresolved`` read argparse's private
# ``_actions``, ``_SubParsersAction`` and ``_option_string_actions``:
# argparse has no public way to list a parser's subcommands or options.
# A Python release that renames them fails these tests, not the docs.


def subcommands(parser):
    return next(
        (
            action.choices
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ),
        {},
    )


def unresolved(invocation, root):
    """The words of ``repro <invocation>`` that name no subcommand or flag."""
    words = invocation.split()
    if words and words[0].startswith("{"):  # argparse's {a,b,...} notation
        choices = words[0].strip("{}").split(",")
        return [word for word in choices if word not in subcommands(root)]
    parser = root
    while words and words[0] in subcommands(parser):
        parser = subcommands(parser)[words.pop(0)]
    if parser is root:
        return [invocation.strip()]
    return [
        word
        for word in words
        if OPTION.match(word)
        and word.split("=")[0] not in parser._option_string_actions
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    assert not [path for path in cited(doc, PATH) if not exists(path)]


@pytest.mark.parametrize("doc", DOCS)
def test_cited_names_resolve(doc):
    assert not [name for name in cited(doc, NAME) if not resolves(name)]


@pytest.mark.parametrize("doc", DOCS)
def test_cited_commands_and_flags_resolve(doc):
    root = build_parser()
    assert not [
        (invocation, miss)
        for line in code_lines(doc)
        for invocation in INVOCATION.findall(line)
        for miss in unresolved(invocation, root)
    ]


#: ``ROADMAP 4(e)`` or ``ROADMAP item 5``: ROADMAP.md renumbers its items
#: at every re-anchor, so such a cite goes stale.  A doc names the DESIGN
#: section or CHANGES entry it means instead.  perfbench/README.md is left
#: out: it belongs to the benchmark, whose files change only with it.
ROADMAP_CITE = re.compile(r"ROADMAP\s+(?:item\s+)?\d")


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_no_roadmap_item_cites(doc):
    text = (REPO / doc).read_text(encoding="utf-8")
    assert not ROADMAP_CITE.findall(text)
