"""``python3 -m perfbench`` — run the benchmark and print every metric.

Two ways to call it, both from the root of a checkout:

``python3 -m perfbench --workload W --seed N --seconds S --trace 0|1``
    One workload, one mode: the form ``BENCHMARK.json`` names.  Prints a
    table for people and, as the last line, one JSON object with exactly
    ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.

``python3 -m perfbench [--seed N] [--smoke] [--save F] [--compare F]``
    All six workloads, untraced then traced, one child process at a
    time; prints every metric by name with its unit.

This process measures nothing itself.  Each measurement is a fresh
``python -m perfbench.runner`` child, so set-up (imports included) can be
timed several times per run: ``setup_s`` is the median over
``SETUP_REPEATS`` children.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_WHY

WORKLOADS = tuple(WORKLOAD_WHY)

ROOT = Path(__file__).resolve().parents[1]

#: Children that set up per ``--trace 0`` run (the measuring child is one).
SETUP_REPEATS = 3
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170


def _child(workload: str, seed: int, seconds: float, trace: int, scale: str,
           phase: str) -> Dict[str, Any]:
    """Run one runner child to completion; its parsed JSON line."""
    command = [
        sys.executable, "-m", "perfbench.runner",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale, "--phase", phase,
    ]
    done = subprocess.run(  # waits; kills the child on timeout
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"runner for {workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"runner for {workload} printed no result")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int,
            scale: str = "full") -> Dict[str, Any]:
    """One workload in one mode; the runner's result plus ``correct`` and,
    untraced, the median ``setup_s`` over ``SETUP_REPEATS`` children."""
    setups: List[float] = []
    if not trace and scale == "full":  # smoke: the measuring child's own set-up only
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_child(workload, seed, seconds, 0, scale, "setup")["setup_s"])
    result = _child(workload, seed, seconds, trace, scale, "measure")
    if not trace:
        setups.append(result["setup_s"])
        result["setup_samples"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["correct"] = result["failed"] == 0 and result["repeat_mismatches"] == 0
    return result


def _units(trace: int) -> Dict[str, str]:
    if trace:
        return {name: unit for name, unit, _better in PER_LAYER}
    return {name: unit for name, unit, _better, _bound in END_TO_END}


def contract_line(result: Dict[str, Any]) -> str:
    """The one JSON object the driver reads: four keys, declared metrics."""
    units = _units(result["trace"])
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_result(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, raw values and sample counts."""
    units = _units(result["trace"])
    name = result["workload"]
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {name} (seed {result['seed']}, {result['scale']}, {mode}) "
          f"unit={result['unit']} op={result['op']}"
          + (f" backend={result['backend']}" if "backend" in result else ""))
    untouched = []
    for metric, unit in units.items():
        value = result["metrics"][metric]
        if result["trace"] and not value:
            untouched.append(metric)  # layers this workload does not touch
            continue
        note = ""
        if not result["trace"]:
            raw = result.get("raw", {}).get(metric)
            if raw is not None:
                note = f"  (raw {raw:.6g})"
            if metric == "op_ms_p50":
                note += f"  n={result['samples']['op_ms_p50']}"
            elif metric == "work_per_s":
                note += (f"  n={result['samples']['segments']} segments"
                         f" over {result['samples']['inputs']} inputs")
            elif metric == "setup_s":
                note = f"  n={len(result['setup_samples'])}"
        print(f"  {metric:<32}{value:>16.6g} {unit}{note}")
    if untouched:
        print(f"  zero on this workload: {' '.join(untouched)}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<32}{ratio:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']})")
    print(f"  result_digest {result['result_digest']}  correct={result['correct']}")
    detail = result.get("trace_detail")
    if detail:
        print(f"  traced {detail['segments']} segments, {detail['spans']} spans"
              f" ({detail['dropped_spans']} not stored), rows sum to"
              f" {detail['rows_sum_s']:.4f}s of {detail['wall_s']:.4f}s wall"
              f" (error {detail['sum_error']:.2%}, thread overlap"
              f" {detail['overlap_s']:.4f}s); spans in {detail['file']}")
        if detail["missing_targets"]:
            print(f"  missing_targets: {', '.join(detail['missing_targets'])}")
    else:
        probe = result["probe_s"]
        print(f"  probe {probe['median'] * 1e3:.1f} ms median"
              f" [{probe['min'] * 1e3:.1f}, {probe['max'] * 1e3:.1f}],"
              f" reference {probe['ref'] * 1e3:.1f} ms, {probe['count']} probes")


def compare(current: Dict[str, Any], baseline: Dict[str, Any]) -> int:
    """Print each end-to-end metric against a saved run; 1 if any is worse
    than its bound, 2 if the two runs are not comparable (another
    ``cpu_count``, another scale)."""
    if current["machine"]["cpu_count"] != baseline["machine"]["cpu_count"]:
        print(
            "perfbench: refusing to compare: this machine has "
            f"{current['machine']['cpu_count']} CPUs, the saved run had "
            f"{baseline['machine']['cpu_count']}", file=sys.stderr,
        )
        return 2
    if current["scale"] != baseline["scale"]:
        print(
            f"perfbench: refusing to compare a {current['scale']} run with a "
            f"{baseline['scale']} one", file=sys.stderr,
        )
        return 2
    worse = 0
    for workload, saved in baseline["end_to_end"].items():
        now = current["end_to_end"].get(workload)
        if now is None:
            continue
        for metric, _unit, better, bound in END_TO_END:
            old, new = saved["metrics"][metric], now["metrics"][metric]
            change = (new - old) / old if better == "lower" else (old - new) / old
            flag = "WORSE" if change > bound else ""
            worse += bool(flag)
            print(f"  {workload:<16}{metric:<14}{old:>14.6g} -> {new:<14.6g}"
                  f"{change:>+8.1%} of bound {bound:.0%} {flag}")
        if saved["result_digest"] != now["result_digest"] and baseline["seed"] == current["seed"]:
            print(f"  {workload:<16}result_digest differs: {saved['result_digest']}"
                  f" -> {now['result_digest']}")
    return 1 if worse else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, about a second per workload")
    parser.add_argument("--save", metavar="FILE", help="write the full results as JSON")
    parser.add_argument("--compare", metavar="FILE",
                        help="compare end-to-end metrics with a --save'd run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "full"
    seconds = args.seconds if args.seconds is not None else (0.5 if args.smoke else RUN_SECONDS)

    if args.workload is not None:
        result = run_one(args.workload, args.seed, seconds, args.trace or 0, scale)
        print_result(result)
        print(contract_line(result))
        return 0

    results: Dict[str, Any] = {"seed": args.seed, "scale": scale, "end_to_end": {},
                               "per_layer": {}}
    modes = (0, 1) if args.trace is None else (args.trace,)
    incorrect = 0
    for workload in WORKLOADS:
        for trace in modes:
            result = run_one(workload, args.seed, seconds, trace, scale)
            print_result(result)
            sys.stdout.flush()
            results["per_layer" if trace else "end_to_end"][workload] = result
            results["machine"] = result["machine"]
            incorrect += not result["correct"]
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    status = 1 if incorrect else 0
    if args.compare:
        status = max(status, compare(results, json.loads(Path(args.compare).read_text())))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
