"""One harness for every committed golden file under ``tests/data``.

A golden pins the whole observable output of fixed-seed runs byte for
byte.  Each golden is a module of this package that declares

* ``CASES`` — case id -> where the case's tree lives in the committed
  files: ``(file name, *keys)``, a key being a dict key or a list index;
* ``compute(case)`` — the case's JSON tree, computed from the library;
* ``LAYOUT`` — ``"indent"`` (``json.dumps`` with ``INDENT``, 1 unless the
  module sets it) or ``"one-case-per-line"`` (a dict of cases, one
  compact case per line, so the file diffs by case);
* optionally ``HEADER`` — constant top-level keys of its file — and
  ``check_*`` functions: semantic checks of what the golden pins (one
  test item per param in ``CHECK_PARAMS[check]``, if it names them).

``tests/golden/test_golden.py`` runs every case, file and check; a
mismatch names the first JSON path that moved (see :func:`report`).
Regenerate a golden (only when an intentional behaviour change lands,
with a CHANGES.md entry that explains it) with::

    PYTHONPATH=src python -m tests.golden <name> [<name> ...] [--out-dir DIR]
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro import (
    EnvConfig, ScheduleRequest, WorkloadConfig, motivating_example, random_layered_dag
)
from repro.dag.mapreduce import mapreduce_dag
from repro.schedulers.base import ClusterSnapshot

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

GOLDENS = (
    "sim", "rl", "gnn", "mcts", "wave", "spear", "heuristic", "graphene", "experiments",
    "dag",
)


def golden(name: str):
    """The golden module ``name`` (one of :data:`GOLDENS`)."""
    if name not in GOLDENS:
        raise KeyError(f"unknown golden {name!r}; known: {', '.join(GOLDENS)}")
    return importlib.import_module(f"{__name__}.{name}")


def files(name: str) -> list:
    """The committed files golden ``name`` writes, in case order."""
    return list(dict.fromkeys(where[0] for where in golden(name).CASES.values()))


def checks(name: str) -> list:
    """Golden ``name``'s check ids: ``check_x``, or ``check_x/<param>`` per param."""
    module = golden(name)
    params = getattr(module, "CHECK_PARAMS", {})
    return [
        check if param is None else f"{check}/{param}"
        for check in sorted(key for key in vars(module) if key.startswith("check_"))
        for param in params.get(check, [None])
    ]


@functools.cache
def computed(name: str, case: str):
    """Case ``case`` of golden ``name``, computed once per process, as JSON
    reads it back (tuples become lists, int keys str)."""
    return json.loads(json.dumps(golden(name).compute(case)))


@functools.cache
def loaded(file: str):
    return json.loads((DATA_DIR / file).read_text(encoding="utf-8"))


def expected(name: str, case: str):
    """Case ``case`` as the committed file holds it."""
    file, *keys = golden(name).CASES[case]
    return _lookup(loaded(file), keys)


def document(name: str, tree_of) -> dict:
    """file name -> the whole tree of that file, built from every case's
    ``tree_of(name, case)`` (:func:`expected` or :func:`computed`)."""
    module = golden(name)
    docs: dict = {}
    for case, (file, *keys) in module.CASES.items():
        tree = tree_of(name, case)
        if not keys:
            docs[file] = tree
            continue
        node = docs.setdefault(file, dict(getattr(module, "HEADER", {})))
        for key, after in zip(keys, keys[1:]):
            node = node.setdefault(key, [] if isinstance(after, int) else {})
        if isinstance(keys[-1], int):
            assert len(node) == keys[-1], f"{name}: {case} is out of order"
            node.append(tree)
        else:
            node[keys[-1]] = tree
    return docs


def dumps(name: str, tree) -> str:
    """The byte layout of golden ``name``'s files."""
    module = golden(name)
    if module.LAYOUT == "indent":
        indent = getattr(module, "INDENT", 1)
        return json.dumps(tree, indent=indent, sort_keys=True) + "\n"
    lines = [
        f" {json.dumps(key)}: "
        f"{json.dumps(tree[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(tree)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


_MISSING = object()


def _lookup(tree, keys):
    for key in keys:
        try:
            tree = tree[key]
        except (KeyError, IndexError, TypeError):
            return _MISSING
    return tree


def first_difference(old, new, path=()):
    """The first path at which two JSON trees differ, or ``None``.

    Dict keys are walked in sorted order and lists in index order; a
    key on one side only, or a list that runs out, is a difference.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                return (*path, key)
            found = first_difference(old[key], new[key], (*path, key))
            if found is not None:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list):
        for index, pair in enumerate(zip(old, new)):
            found = first_difference(*pair, (*path, index))
            if found is not None:
                return found
        return None if len(old) == len(new) else (*path, min(len(old), len(new)))
    return None if json.dumps(old) == json.dumps(new) else path


def _show(value) -> str:
    return "<missing>" if value is _MISSING else json.dumps(value, sort_keys=True)


def render(path) -> str:
    return "".join(f"[{json.dumps(key)}]" for key in path) or "the root"


def _starts(node, at_root: bool):
    """task id -> start of a recorded plan, or ``None`` if ``node`` is none.

    A plan is a dict with ``starts`` (a ``{task: start}`` map or a list
    indexed by task id), a dict whose ``plan`` / ``placements`` are
    ``[task, start, finish]`` rows, or such rows as the whole case.
    """
    if isinstance(node, dict):
        starts = node.get("starts")
        if isinstance(starts, dict):
            return {int(task): start for task, start in starts.items()}
        if isinstance(starts, list):
            return dict(enumerate(starts))
        rows = node.get("plan", node.get("placements"))
    else:
        rows = node if at_root else None
    if isinstance(rows, list) and all(
        isinstance(row, list) and len(row) == 3 for row in rows
    ):
        return {row[0]: row[1] for row in rows}
    return None


def _moved_plan(old, new, path) -> list:
    """Lines naming the earliest-starting moved task of the innermost plan
    that encloses ``path``, and that plan's statistics on both sides."""
    for cut in range(len(path), -1, -1):
        prefix = path[:cut]
        old_node, new_node = _lookup(old, prefix), _lookup(new, prefix)
        old_starts, new_starts = _starts(old_node, not cut), _starts(new_node, not cut)
        if old_starts is None or new_starts is None:
            continue
        # The first divergent decision: the moved task that starts
        # earliest on either side (ties broken by task id).
        moved = sorted(
            (min(s for s in (old_starts.get(t), new_starts.get(t)) if s is not None), t)
            for t in old_starts.keys() | new_starts.keys()
            if old_starts.get(t) != new_starts.get(t)
        )
        lines = [f"no task start moved in the plan at {render(prefix)}"]
        if moved:
            task = moved[0][1]
            lines = [
                f"earliest moved task {task} in the plan at {render(prefix)}: "
                f"golden start {_show(old_starts.get(task, _MISSING))}, "
                f"now {_show(new_starts.get(task, _MISSING))} "
                f"({len(moved)} task(s) moved)"
            ]
        if isinstance(old_node, dict) and "statistics" in old_node:
            lines.append(
                f"statistics: golden {_show(old_node['statistics'])}, "
                f"now {_show(_lookup(new_node, ['statistics']))}"
            )
        return lines
    return []


def report(old, new):
    """``None`` if the trees are equal, else where they first differ.

    The report names the first differing path with both values and, if
    that path lies in a recorded plan, the earliest-starting task whose
    start moved (the first divergent decision) and the plan's recorded
    ``statistics`` on both sides.
    """
    path = first_difference(old, new)
    if path is None:
        return None
    lines = [
        f"first difference at {render(path)}: "
        f"golden {_show(_lookup(old, path))}, now {_show(_lookup(new, path))}"
    ]
    return "\n".join(lines + _moved_plan(old, new, path))


#: The capacities of every degraded replan request.
DEGRADED_CAPACITIES = (14, 14)


def hex_array(array) -> list:
    """``[shape, flat float.hex() strings]`` (bit-exact round trip)."""
    array = np.asarray(array, dtype=np.float64)
    return [list(array.shape), [float(x).hex() for x in array.ravel()]]


def epoch_rows(history) -> list:
    """Every :class:`EpochStats` field of a training run, floats as hex."""
    return [
        {
            key: float(value).hex() if isinstance(value, float) else value
            for key, value in asdict(stats).items()
        }
        for stats in history
    ]


def params_digest(params: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(params):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(params[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def event_env() -> EnvConfig:
    return EnvConfig(process_until_completion=True)


def layered(num_tasks: int, seed: int, *, degraded: bool = False, **kwargs):
    """A seeded layered DAG; ``degraded``: demands that fit
    :data:`DEGRADED_CAPACITIES` but stress them."""
    sized = {"max_demand": 12, "demand_mean": 6.0} if degraded else {}
    workload = WorkloadConfig(num_tasks=num_tasks, **sized)
    return random_layered_dag(workload, seed=seed, **kwargs)


def _mapreduce(ties: bool):
    rng = np.random.default_rng(505)

    def demand():
        return tuple(int(d) for d in rng.integers(1, 9, size=2))

    # With ``ties`` (the heuristic golden's DAG), half the maps share one
    # demand vector, so ranking ties are broken by task id, and the other
    # maps' demands are drawn before the runtimes.
    map_demands = [(2, 1) if i % 2 else demand() for i in range(18)] if ties else []
    map_runtimes = [int(r) for r in rng.integers(1, 12, size=18)]
    reduce_runtimes = [int(r) for r in rng.integers(1, 12, size=6)]
    return mapreduce_dag(
        map_runtimes,
        reduce_runtimes,
        map_demands=map_demands or [demand() for _ in range(18)],
        reduce_demands=[demand() for _ in range(6)],
    )


#: The named DAGs of the Graphene and heuristic goldens.  The two build
#: *different* MapReduce DAGs under the same case name: the heuristic
#: golden's is ``mapreduce-ties``.
_GRAPHS = {
    "layered30": lambda: layered(30, 101),
    "layered100": lambda: layered(100, 202),
    "layered3r": lambda: layered(30, 303, num_resources=3),
    "degraded30": lambda: layered(30, 404, degraded=True),
    "fig3": motivating_example,
    "mapreduce": lambda: _mapreduce(ties=False),
    # 18 maps outnumber the default window of 15.
    "mapreduce-ties": lambda: _mapreduce(ties=True),
}


@functools.cache
def graph(name: str):
    """The named DAG, built once."""
    return _GRAPHS[name]()


def degraded_request(dag) -> ScheduleRequest:
    """A replan request whose snapshot carries :data:`DEGRADED_CAPACITIES`."""
    assert all(
        demand <= capacity
        for task in dag
        for demand, capacity in zip(task.demands, DEGRADED_CAPACITIES)
    ), "the degraded case must be planned on the degraded capacities"
    snapshot = ClusterSnapshot(capacities=DEGRADED_CAPACITIES)
    return ScheduleRequest(dag, cluster=snapshot)


def plan_record(schedule, dag, statistics=None, fields=()) -> dict:
    """A plan's makespan, every task's start and the named search
    ``statistics`` fields (none: no ``statistics`` key)."""
    record = {
        "makespan": schedule.makespan,
        "starts": {str(tid): schedule.start_of(tid) for tid in sorted(dag.tasks())},
    }
    if fields:
        record["statistics"] = {field: getattr(statistics, field) for field in fields}
    return record


def placements(schedule) -> list:
    """``[task, start, finish]`` rows in task-id order."""
    return [
        [p.task_id, p.start, p.finish]
        for p in sorted(schedule.placements, key=lambda p: p.task_id)
    ]
