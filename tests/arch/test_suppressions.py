"""Every ``# repro: noqa[ID]`` under ``src/`` names a live rule and is needed.

A suppression that outlives its rule (or the finding it silenced) is a
comment nobody can check.  One lint pass over the tree with every
suppression comment stripped must report exactly the suppressed
``(file, line, rule)`` triples: a stale or misspelt id, a bare
``# repro: noqa`` and a site that no longer trips its rule all fail here.
"""

import re
from pathlib import Path

from repro.analysis import (
    ProjectGraph,
    available_rules,
    collect_suppressions,
    lint_graph,
)

SRC = Path(__file__).resolve().parents[2] / "src"
ANALYSIS = SRC / "repro" / "analysis"
NOQA_COMMENT = re.compile(r"#\s*repro:\s*noqa.*$", re.MULTILINE)


def test_every_suppression_names_a_live_rule_and_is_needed():
    sources = {
        str(path): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
        if ANALYSIS not in path.parents  # its docstrings spell out the syntax
    }
    suppressed = {
        (path, line, rule_id)
        for path, source in sources.items()
        for line, ids in collect_suppressions(source).items()
        for rule_id in ids
    }
    assert suppressed, "no suppression left: delete this test's premise with it"
    assert {rule_id for _, _, rule_id in suppressed} <= set(available_rules())

    stripped = {path: NOQA_COMMENT.sub("", source) for path, source in sources.items()}
    reported = {
        (v.path, v.line, v.rule_id)
        for v in lint_graph(ProjectGraph.from_sources(stripped))
    }
    assert reported == suppressed
