"""Calibration probe: a fixed piece of work timed next to every segment.

The sandbox this benchmark runs in shares its cores.  The same loop can
take 0.38 s now and 0.58 s a quarter of an hour later, so a raw wall time
says as much about the neighbours as about the code.  The probe is a
fixed amount of work that knows nothing of ``repro``: when the machine
slows down, the probe slows down with it, and the ratio cancels the
drift.  Every timed segment is bracketed by two probes and reported as::

    calibrated = wall * PROBE_REF_S / mean(probe before, probe after)

that is, in seconds of the reference machine state.  Raw wall times are
kept beside the calibrated ones so the correction itself can be audited.

The probe mixes the three kinds of work the workloads do, in roughly the
proportion they do them: interpreted integer and dict operations,
dependent loads over an object pool too large for the L2 cache, and a few
small NumPy matmuls.  It must not change without ``PROBE_REF_S`` being
measured again: ``PROBE_SOURCE_SHA256`` pins its source and a self-test
compares the two.
"""

from __future__ import annotations

import hashlib
import inspect
import time
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "PROBE_REF_S",
    "PROBE_SOURCE_SHA256",
    "Probe",
    "calibrate",
    "probe_source_sha256",
]

#: Median probe time on the machine the baseline was recorded on (2 cores,
#: quiet).  Calibrated seconds are seconds of that machine state.
PROBE_REF_S = 0.088

#: SHA-256 of ``Probe.run``'s and ``Probe.__init__``'s source at the time
#: ``PROBE_REF_S`` was measured.
PROBE_SOURCE_SHA256 = "a5afc492b4a0189a59e046b28b907a0655ae07191b824cc3fca9ce5aac4df672"

_POOL_NODES = 1 << 17  # 128k two-slot lists: ~12 MB of objects
_CHASE_STEPS = 300_000
_LOOP_STEPS = 340_000
_MATMULS = 800


class Probe:
    """The fixed work.  Build once (the pool is set-up, not probe time)."""

    def __init__(self) -> None:
        # A random cycle through the pool: every load depends on the one
        # before it and lands on a cold line.
        order = np.random.default_rng(12345).permutation(_POOL_NODES).tolist()
        pool: List[list] = [[0, None] for _ in range(_POOL_NODES)]
        for here, there in zip(order, order[1:] + order[:1]):
            pool[here][1] = pool[there]
            pool[here][0] = there
        self._head = pool[order[0]]
        self._pool = pool  # keeps the nodes alive
        rng = np.random.default_rng(54321)
        self._a = rng.standard_normal((48, 256))
        self._b = rng.standard_normal((256, 32))

    def run(self) -> float:
        """Do the work once; returns its wall time in seconds."""
        start = time.perf_counter()
        # Interpreted arithmetic and dict traffic.
        table = {}
        acc = 0
        for i in range(_LOOP_STEPS):
            acc = (acc * 31 + i) & 0xFFFFF
            table[acc & 0x3FF] = i
        # Dependent loads over the pool.
        node = self._head
        for _ in range(_CHASE_STEPS):
            node = node[1]
        # Small dense algebra, the size of one policy forward pass.
        a, b = self._a, self._b
        total = 0.0
        for _ in range(_MATMULS):
            total += float(np.maximum(a @ b, 0.0)[0, 0])
        elapsed = time.perf_counter() - start
        self._sink = (acc, len(table), node[0], total)
        return elapsed


def probe_source_sha256() -> str:
    """SHA-256 of the probe's source and size constants."""
    text = inspect.getsource(Probe) + repr(
        (_POOL_NODES, _CHASE_STEPS, _LOOP_STEPS, _MATMULS)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibrate(wall_s: float, probes: Sequence[float]) -> float:
    """``wall_s`` rescaled to reference-machine seconds.

    ``probes`` are the probe times adjacent to the measured interval
    (normally the one before and the one after).
    """
    if not probes:
        raise ValueError("calibration needs at least one adjacent probe")
    if any(p <= 0.0 for p in probes):
        raise ValueError(f"probe times must be positive, got {list(probes)}")
    return wall_s * PROBE_REF_S / (sum(probes) / len(probes))


def bracket(probe: Probe, fn) -> Tuple[float, float, object]:
    """Run ``fn`` between two probes; ``(calibrated_s, wall_s, result)``."""
    before = probe.run()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = probe.run()
    return calibrate(wall, (before, after)), wall, result
