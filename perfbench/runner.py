"""One workload, measured in this process.

``python -m perfbench`` starts this module in a fresh child process per
measurement (``python -m perfbench.runner --workload ...``), one at a
time; its last line of output is one JSON object the parent reads.

Three phases:

``setup``
    set up (imports, inputs, checkpoint, construction, one warm-up
    operation), report the set-up time, tear down.
``measure`` with ``--trace 0``
    set up, then time segments round-robin over the workload's inputs
    until ``--seconds`` have passed and every input ran once; report the
    end-to-end metrics.  Tracing is off.
``measure`` with ``--trace 1``
    set up, run the first ``trace_segments`` segments untraced, then the
    same segments under :class:`perfbench.trace.Tracer`; report the
    self-time table, the counts and the tracing overhead.  A fixed
    amount of work, so that call counts repeat exactly; ``--seconds`` is
    not used.

Noise control, in the order it is applied: one BLAS thread (set before
NumPy loads); a calibration probe before and after every segment
(:mod:`perfbench.calib`); ``gc.freeze()`` after set-up so the collector
never walks set-up objects inside a segment; one warm-up operation per
workload; medians over segments, never a sum over a noisy run.
"""

from __future__ import annotations

import os

# Before NumPy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

__all__ = ["main", "measure", "measure_traced", "machine_info"]


def machine_info() -> Dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


class _Totals:
    """Attempted / failed operations and exact-repeat bookkeeping."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.exact: Dict[int, Any] = {}
        self.repeat_mismatches = 0

    def add(self, index: int, segment: Any) -> None:
        self.attempted += segment.attempted
        self.failed += segment.failed
        if index not in self.exact:
            self.exact[index] = segment.exact
        elif self.exact[index] != segment.exact:
            self.repeat_mismatches += 1


def measure(workload: Any, probe: Any, seconds: float) -> Dict[str, Any]:
    """The untraced timed loop; returns the end-to-end result."""
    from .calib import PROBE_REF_S, calibrate
    from .checks import result_digest

    totals = _Totals()
    cycle = workload.cycle
    calibrated: List[List[float]] = [[] for _ in range(cycle)]  # per input
    walls: List[List[float]] = [[] for _ in range(cycle)]
    rates: List[List[float]] = [[] for _ in range(cycle)]
    raw_rates: List[List[float]] = [[] for _ in range(cycle)]
    latency_p50: List[float] = []  # per segment, calibrated ms
    latency_raw_p50: List[float] = []
    latency_samples = 0
    achieved = bound = 0.0
    probes: List[float] = []

    before = probe.run()
    probes.append(before)
    started = time.perf_counter()
    count = 0
    while True:
        index = count % cycle
        workload.prepare(index)
        t0 = time.perf_counter()
        output = workload.run(index)
        wall = time.perf_counter() - t0
        after = probe.run()
        probes.append(after)
        segment = workload.check(index, output)
        seconds_cal = calibrate(wall, (before, after))
        factor = seconds_cal / wall
        calibrated[index].append(seconds_cal)
        walls[index].append(wall)
        rates[index].append(segment.work / seconds_cal)
        raw_rates[index].append(segment.work / wall)
        if len(segment.latencies):
            mid = _median(segment.latencies) * 1e3
            latency_p50.append(mid * factor)
            latency_raw_p50.append(mid)
            latency_samples += len(segment.latencies)
        if count < cycle:
            achieved += segment.achieved
            bound += segment.bound
        totals.add(index, segment)
        before = after
        count += 1
        if count >= cycle and time.perf_counter() - started >= seconds:
            break
    loop_wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, _counts = workload.close()
    totals.attempted += attempted
    totals.failed += failed

    if latency_p50:
        op_ms, op_ms_raw = _median(latency_p50), _median(latency_raw_p50)
        op_samples = latency_samples
    else:
        op_ms = _median([_median(row) for row in calibrated]) * 1e3
        op_ms_raw = _median([_median(row) for row in walls]) * 1e3
        op_samples = count
    exact = [totals.exact[i] for i in range(cycle)]
    return {
        "metrics": {
            "work_per_s": _median([_median(row) for row in rates]),
            "op_ms_p50": op_ms,
            "gap_to_bound": achieved / bound,
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "work_per_s": _median([_median(row) for row in raw_rates]),
            "op_ms_p50": op_ms_raw,
        },
        "samples": {"segments": count, "inputs": cycle, "op_ms_p50": op_samples},
        "attempted": totals.attempted,
        "failed": totals.failed,
        "repeat_mismatches": totals.repeat_mismatches,
        "result_digest": result_digest(exact),
        "loop_wall_s": loop_wall,
        "probe_s": {
            "min": min(probes), "median": _median(probes), "max": max(probes),
            "ref": PROBE_REF_S, "count": len(probes),
        },
    }


def measure_traced(workload: Any, probe: Any, stem: str) -> Dict[str, Any]:
    """Untraced then traced pass over the same segments; per-layer result."""
    from .calib import calibrate
    from .checks import result_digest
    from .spec import PER_LAYER, RESIDUAL_ROWS
    from .trace import Tracer

    totals = _Totals()
    segments = workload.trace_segments
    counts: Dict[str, int] = {}
    phases: Dict[str, List[float]] = {}
    latency_p95: List[float] = []
    makespans: List[float] = []

    def one_pass(tracer: Optional[Tracer]) -> Dict[str, float]:
        """Time ``run`` + ``check`` of each segment; probes around each."""
        wall = cal = 0.0
        before = probe.run()
        for index in range(segments):
            index %= workload.cycle
            workload.prepare(index)
            workload.tracer = tracer
            if tracer is not None:
                tracer.install()
            try:
                t0 = time.perf_counter()
                output = workload.run(index)
                segment = workload.check(index, output)
                seg_wall = time.perf_counter() - t0
            finally:
                workload.tracer = None
                if tracer is not None:
                    tracer.uninstall()
            after = probe.run()
            seg_cal = calibrate(seg_wall, (before, after))
            factor = seg_cal / seg_wall
            wall += seg_wall
            cal += seg_cal
            before = after
            totals.add(index, segment)
            if tracer is None:
                for phase, (phase_s, work) in segment.phases.items():
                    phases.setdefault(phase, []).append(work / (phase_s * factor))
                if len(segment.latencies):
                    latency_p95.append(_percentile(segment.latencies, 95) * 1e3 * factor)
                if workload.has_makespans:
                    makespans.append(segment.achieved / segment.attempted)
            else:
                for key, value in segment.counts.items():
                    counts[key] = counts.get(key, 0) + value
        return {"wall": wall, "calibrated": cal}

    untraced = one_pass(None)
    tracer = Tracer()
    traced = one_pass(tracer)
    table = tracer.table(traced["wall"], residual=workload.residual)
    path = tracer.write(OUT_DIR, stem, table)
    extras = workload.extras(probe)
    attempted, failed, close_counts = workload.close()
    totals.attempted += attempted
    totals.failed += failed
    counts.update(close_counts)

    # Self times are raw seconds of the traced pass; rescale them by the
    # pass's own calibration so they add up to the calibrated wall.
    scale = traced["calibrated"] / traced["wall"]
    values: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for boundary, row in table.rows.items():
        values[f"{boundary}.self_s"] = row["self_s"] * scale
        if boundary not in RESIDUAL_ROWS:
            values[f"{boundary}.calls"] = row["calls"]
        if "rows" in row:
            values[f"{boundary}.rows"] = row["rows"]
    for key, value in counts.items():
        values[key] = value
    values.update(extras)
    for phase_metric, samples in phases.items():
        values[phase_metric] = _median(samples)
    if latency_p95:
        values["serve.req_ms_p95"] = _median(latency_p95)
    if makespans:
        values["makespan_mean"] = sum(makespans) / len(makespans)
    values["trace.wall_s"] = traced["calibrated"]
    values["trace_overhead_ratio"] = traced["calibrated"] / untraced["calibrated"]
    values["trace.missing_targets"] = len(tracer.missing_targets)
    unknown = sorted(set(values) - {name for name, _u, _b in PER_LAYER})
    if unknown:
        raise RuntimeError(f"per-layer values not declared in spec.PER_LAYER: {unknown}")

    covered = table.total_self_s
    exact = [totals.exact[i] for i in sorted(totals.exact)]
    return {
        "metrics": values,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "repeat_mismatches": totals.repeat_mismatches,
        "result_digest": result_digest(exact),
        "trace_detail": {
            "segments": segments,
            "wall_s": traced["wall"],
            "rows_sum_s": covered,
            "sum_error": abs(covered - traced["wall"]) / traced["wall"],
            "overlap_s": table.overlap_s,
            "spans": tracer.span_count,
            "dropped_spans": tracer.dropped_spans,
            "missing_targets": tracer.missing_targets,
            "file": str(path.relative_to(ROOT)),
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--phase", choices=("setup", "measure"), default="measure")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {source / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    from .calib import Probe, calibrate
    from .workloads import make_workload

    probe = Probe()
    probe.run()  # the first run pays for cold caches
    before = probe.run()
    t0 = time.perf_counter()
    workload = make_workload(args.workload, args.seed, args.scale)
    workload.setup()
    setup_wall = time.perf_counter() - t0
    after = probe.run()
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "unit": workload.unit,
        "op": workload.op,
        "setup_s": calibrate(setup_wall, (before, after)),
        "setup_wall_s": setup_wall,
        "machine": machine_info(),
    }
    if workload.backend:
        result["backend"] = workload.backend
    if args.phase == "setup":
        workload.close()
    else:
        gc.collect()
        gc.freeze()
        if args.trace:
            stem = f"{args.workload}.seed{args.seed}.{args.scale}"
            result.update(measure_traced(workload, probe, stem))
        else:
            result.update(measure(workload, probe, args.seconds))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
