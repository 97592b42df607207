"""Microbenchmarks for the three calls perfbench cannot price.

``repro bench`` runs the registered suite (:mod:`repro.bench.suites`:
``telemetry.span_disabled``, ``observation.build``,
``rl.policy_select``) with warmup and repeated timing and optionally
gates against the committed rows of ``benchmarks/baselines.json``
(:mod:`repro.bench.runner`).  Everything else is timed end to end, layer
by layer, by ``perfbench``.
"""

from .runner import (
    BenchmarkSpec,
    compare_to_baselines,
    load_baselines,
    run_benchmarks,
    write_baselines,
)
from .suites import default_suite

__all__ = [
    "BenchmarkSpec",
    "compare_to_baselines",
    "default_suite",
    "load_baselines",
    "run_benchmarks",
    "write_baselines",
]
