"""Shared fixture helper: run the lint pass over in-memory sources."""

import textwrap

import pytest

from repro.analysis import ProjectGraph, lint_graph


@pytest.fixture
def flow_hits():
    def run(sources, rule_id):
        graph = ProjectGraph.from_sources(
            {path: textwrap.dedent(src) for path, src in sources.items()}
        )
        return [v for v in lint_graph(graph) if v.rule_id == rule_id]

    return run
