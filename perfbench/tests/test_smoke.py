"""End-to-end self-tests: the contract in BENCHMARK.json, at smoke size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from perfbench.spec import END_TO_END, PER_LAYER, WORKLOAD_WHY, benchmark_json

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )


def test_benchmark_json_matches_spec():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC == json.loads(json.dumps(benchmark_json()))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_WHY)
    assert [w["why"] for w in SPEC["workloads"]] == list(WORKLOAD_WHY.values())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert len(SPEC["per_layer"]) <= 128 and len(SPEC["end_to_end"]) <= 16
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_smoke_runs_all_workloads_and_prints_every_metric():
    start = time.perf_counter()
    done = _run(["--smoke"])
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 30.0
    for workload in WORKLOAD_WHY:
        assert f"== {workload} (seed 0, smoke, untraced)" in done.stdout
        assert f"== {workload} (seed 0, smoke, traced)" in done.stdout
    printed = set()
    for line in done.stdout.splitlines():
        if line.startswith("  zero on this workload:"):
            printed.update(line.split(":", 1)[1].split())
        elif line.startswith("  "):
            printed.add(line.split()[0])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["name"] in printed, metric["name"]
    assert "correct=False" not in done.stdout
    assert "  missing_targets:" not in done.stdout


def test_driver_form_prints_the_contract_line():
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = _run(
            ["--workload", "serve_roundtrip", "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--smoke"]
        )
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert set(last["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            entry = last["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
        if trace == 0:
            assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_same_seed_repeats_exact_values_and_other_seed_differs():
    def digest(seed):
        done = _run(["--workload", "mcts_plan", "--seed", str(seed), "--seconds", "1",
                     "--trace", "0", "--smoke"])
        assert done.returncode == 0, done.stderr
        line = next(l for l in done.stdout.splitlines() if "result_digest" in l)
        gap = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]["gap_to_bound"]
        return line.split()[1], gap["value"]

    assert digest(0) == digest(0)
    assert digest(0)[0] != digest(1)[0]


def test_fails_without_a_result_where_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _run(
        ["--workload", "mcts_plan", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
