"""Every golden case, file and check; and a self-test of the differ.

Test ids start with the golden's name (``test_case[sim/faulty]``,
``test_file[rl/rl_golden.json]``, ``test_check[graphene/...]``), so
``-k "[sim/"`` selects one golden.  Each case is computed once per
test run; the byte-for-byte file check serialises the cached trees.
"""

import copy
import json

import pytest

from tests.golden import (
    DATA_DIR, GOLDENS, checks, computed, document, dumps, expected, files, golden,
    loaded, report,
)

CASES = [(name, case) for name in GOLDENS for case in golden(name).CASES]
FILES = [(name, file) for name in GOLDENS for file in files(name)]
CHECKS = [(name, check) for name in GOLDENS for check in checks(name)]
REGENERATE = "PYTHONPATH=src python -m tests.golden {}"


def _ids(pairs):
    return [f"{name}/{item.removeprefix('check_')}" for name, item in pairs]


@pytest.mark.parametrize("name, case", CASES, ids=_ids(CASES))
def test_case(name, case):
    problem = report(expected(name, case), computed(name, case))
    if problem is not None:
        pytest.fail(
            f"golden {name} case {case!r} moved\n{problem}\nif the change is "
            f"intentional, regenerate with {REGENERATE.format(name)} and explain "
            "it in CHANGES.md",
            pytrace=False,
        )


@pytest.mark.parametrize("name, file", FILES, ids=_ids(FILES))
def test_covers(name, file):
    """The declared cases (and header) are all the file holds."""
    problem = report(loaded(file), document(name, expected)[file])
    assert problem is None, f"{file} holds more than {name} declares\n{problem}"


@pytest.mark.parametrize("name, file", FILES, ids=_ids(FILES))
def test_file(name, file):
    """The computed cases serialise to the file byte for byte."""
    text = (DATA_DIR / file).read_text(encoding="utf-8")
    tree = document(name, computed)[file]
    assert dumps(name, tree) == text, f"{file} does not reproduce byte for byte"


@pytest.mark.parametrize("name, check", CHECKS, ids=_ids(CHECKS))
def test_check(name, check):
    check, *param = check.split("/")
    getattr(golden(name), check)(*param)


def test_report_names_the_moved_start_and_the_earliest_moved_task():
    old = expected("spear", "mlp-101")
    new = copy.deepcopy(old)
    new["starts"]["7"] += 3
    lines = report(old, new).splitlines()
    start = old["starts"]["7"]
    assert lines[0] == (
        f'first difference at ["starts"]["7"]: golden {start}, now {start + 3}'
    )
    assert lines[1].startswith(
        f"earliest moved task 7 in the plan at the root: golden start {start}, "
        f"now {start + 3} (1 task(s) moved)"
    )
    assert report(old, copy.deepcopy(old)) is None


def test_report_names_the_earliest_of_several_moved_tasks_and_the_statistics():
    old = expected("mcts", "default-101")
    new = copy.deepcopy(old)
    by_start = sorted(old["starts"], key=lambda task: (old["starts"][task], int(task)))
    early, late = by_start[1], by_start[-1]
    new["starts"][late] += 1
    new["starts"][early] += 1
    new["statistics"]["iterations"] += 1
    lines = report(old, new).splitlines()
    assert lines[1].startswith(
        f"earliest moved task {early} in the plan at the root: golden start "
        f"{old['starts'][early]}, now {old['starts'][early] + 1} (2 task(s) moved)"
    )
    assert lines[2] == (
        f"statistics: golden {json.dumps(old['statistics'], sort_keys=True)}, "
        f"now {json.dumps(new['statistics'], sort_keys=True)}"
    )


def test_report_names_a_changed_float_hex():
    old = expected("rl", "value")
    new = copy.deepcopy(old)
    new["predictions"][1][2] = float.hex(float.fromhex(old["predictions"][1][2]) * 2)
    assert report(old, new).splitlines() == [
        f'first difference at ["predictions"][1][2]: golden '
        f'"{old["predictions"][1][2]}", now "{new["predictions"][1][2]}"'
    ]


def test_report_names_a_nested_key_in_a_sim_trace():
    old = expected("sim", "federation_4shard")
    new = copy.deepcopy(old)
    crashes = old["result"]["shards"][2]["result"]["online"]["crashes"]
    online = new["result"]["shards"][2]["result"]["online"]
    online["crashes"] = crashes + 1
    path = '["result"]["shards"][2]["result"]["online"]["crashes"]'
    assert report(old, new).splitlines() == [
        f"first difference at {path}: golden {crashes}, now {crashes + 1}"
    ]
    del online["crashes"]
    assert report(old, new).splitlines() == [
        f"first difference at {path}: golden {crashes}, now <missing>"
    ]
