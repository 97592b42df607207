"""Golden-trace regression: fixed-seed runs asserted byte-for-byte.

The committed traces under ``tests/data/`` pin the entire observable
surface of fixed-seed runs — a fault-free and a fault-injected closed
batch, a bounded-admission open stream with a horizon, and a 4-shard
federation with stealing and a crash rescue: outcomes, executed
schedules, the ordered fault-event log, the ordered telemetry stream
(wall-clock fields stripped), and the metric snapshot.  Any change to
event ordering, however subtle, shows up as a byte diff.

Scenario definitions and serialization live in
``tests/data/make_golden.py`` (also the regeneration script), so this
test can never disagree with what regeneration writes.
"""

import importlib.util
from pathlib import Path

import pytest


def _load_make_golden():
    path = Path(__file__).resolve().parents[2] / "data" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_golden = _load_make_golden()


@pytest.mark.parametrize("scenario", sorted(make_golden.GOLDEN_FILES))
def test_golden_trace_byte_identical(scenario):
    path = make_golden.GOLDEN_FILES[scenario]
    assert path.exists(), (
        f"missing golden trace {path.name}; regenerate with "
        "PYTHONPATH=src python tests/data/make_golden.py"
    )
    expected = path.read_text(encoding="utf-8")
    actual = make_golden.serialize(make_golden.run_scenario(scenario))
    assert actual == expected, (
        f"golden trace {path.name} diverged — the realized event order or "
        "result surface changed; if intentional, regenerate and document"
    )


def test_faulty_golden_exercises_every_incident_kind():
    payload = make_golden.run_scenario("faulty")
    kinds = {row[1] for row in payload["result"]["fault_events"]}
    assert {"crash", "recovery", "task_failure", "retry"} <= kinds
    assert payload["result"]["crashes"] == 2
    assert payload["result"]["recoveries"] == 2


def test_open_goldens_exercise_every_open_system_path():
    """The open-system goldens only pin what their scenarios reach."""
    streaming = make_golden.run_scenario("streaming_bounded")
    names = {e["name"] for e in streaming["telemetry_events"]}
    assert {
        "streaming.admit",
        "streaming.queue",
        "streaming.reject",
        "streaming.horizon_cutoff",
        "fault.job_failed",
    } <= names
    reasons = {row[2] for row in streaming["result"]["rejected"]}
    assert {"backpressure", "horizon"} < reasons  # plus the infeasible job
    assert max(streaming["result"]["queueing_delays"]) > 0

    federation = make_golden.run_scenario("federation_4shard")
    names = {e["name"] for e in federation["telemetry_events"]}
    assert {
        "federation.route",
        "federation.steal",
        "federation.reject",
        "federation.horizon_cutoff",
        "streaming.queue",
        "streaming.reject",
    } <= names
    sources = {row[4] for row in federation["result"]["steals"]}
    assert sources == {"backlog", "admitted", "rescue"}


def test_goldens_are_verifier_clean():
    """Executed schedules in both scenarios pass the invariant verifier."""
    from repro.config import ClusterConfig
    from repro.online import OnlineSimulator, cp_ranker, verify_execution

    stream = make_golden.golden_stream()
    simulator = OnlineSimulator(
        ClusterConfig(capacities=make_golden.CAPACITIES, horizon=8)
    )
    for faults, rescheduler in (
        (None, None),
        (make_golden.golden_faults(), make_golden.golden_rescheduler()),
    ):
        result = simulator.run(
            stream, cp_ranker, faults=faults, rescheduler=rescheduler
        )
        for report in verify_execution(result, stream, make_golden.CAPACITIES):
            assert report is None or not report.violations
