"""Deterministic realization of a :class:`~repro.faults.plan.FaultPlan`.

The injector answers, for every task attempt, the two questions the
executor asks at dispatch time — *how long will this attempt actually
run* and *will it fail transiently at the end* — plus the crash/recovery
timeline the event loop interleaves with arrivals and completions.

Every per-attempt draw comes from a counter-based stream keyed by
``(plan.seed, job_index, task_id, attempt)`` (a splitmix64 hash of the
key), so the answers are a pure function of the key: re-asking in any
order (or after a reschedule changed the dispatch order) yields
identical outcomes.  This key-derived scheme is what makes the whole
fault-injected simulation bit-reproducible.  Hashing the key directly
replaces the earlier per-attempt ``numpy.random.SeedSequence`` spawn,
whose constructor alone cost more than an entire realized attempt.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from ..errors import ConfigError
from .plan import FaultPlan

__all__ = ["TaskAttempt", "TimelineEntry", "TimelineCursor", "FaultInjector"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 stream increment
_TWO64 = float(1 << 64)

#: Realized runtimes are slot counts and stay below this.
_RUNTIME_LIMIT = 2.0**63


def _mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche one 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _KeyedStream:
    """Tiny deterministic RNG keyed by ``(seed, job, task, attempt)``.

    A splitmix64 counter stream: the key words are folded into the
    starting state, then each draw advances the counter and avalanches
    it.  Pure function of the key — the property the injector's
    bit-reproducibility contract rests on — at a fraction of the cost
    of seeding a full ``numpy`` generator per attempt.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, job_index: int, task_id: int, attempt: int) -> None:
        state = _mix64(seed & _MASK64)
        for word in (job_index, task_id, attempt):
            state = _mix64((state + _GOLDEN + (word & _MASK64)) & _MASK64)
        self._state = state

    def uniform(self) -> float:
        """Next draw in ``[0, 1)``."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state) / _TWO64

    def normal(self) -> float:
        """Standard normal via Box-Muller (consumes two uniforms)."""
        u1 = 1.0 - self.uniform()  # (0, 1]: keeps log() finite
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class TaskAttempt(NamedTuple):
    """Realized outcome of one task attempt.

    Attributes:
        runtime: actual slots the attempt occupies (>= 1).
        fails: the attempt fails transiently at its finish time.
        straggled: the straggler slowdown was applied.
    """

    runtime: int
    fails: bool
    straggled: bool


class TimelineEntry(NamedTuple):
    """One capacity-change event on the crash/recovery timeline.

    ``kind`` is ``"crash"`` or ``"recovery"``; ``capacity`` the slots
    removed (crash) or restored (recovery); ``machine`` the reporting
    label of the crash event it belongs to.
    """

    time: int
    order: int  # recoveries (0) before crashes (1) at equal times
    kind: str
    machine: int
    capacity: Tuple[int, ...]


class FaultInjector:
    """Stateless oracle over one fault plan.

    Args:
        plan: the fault model to realize.

    The injector holds no mutable state; all methods are pure functions
    of their arguments and the plan seed.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    # ------------------------------------------------------------------ #
    # per-attempt realization
    # ------------------------------------------------------------------ #

    def attempt(
        self, job_index: int, task_id: int, attempt: int, nominal_runtime: int
    ) -> TaskAttempt:
        """Realize attempt ``attempt`` (1-based) of one task.

        The draw order (failure, straggler, noise) is fixed so outcomes
        never depend on which model components are enabled elsewhere.

        Raises:
            ConfigError: on a non-positive attempt number or runtime, or
                when noise or the straggler slowdown makes the realized
                runtime not below ``2**63`` slots (the bound arrival
                times keep, :class:`~repro.streaming.PoissonProcess`).
        """

        if attempt < 1:
            raise ConfigError("attempt numbers are 1-based")
        if nominal_runtime < 1:
            raise ConfigError("nominal_runtime must be >= 1")
        plan = self.plan
        if plan.is_null:
            return TaskAttempt(runtime=nominal_runtime, fails=False, straggled=False)
        rng = _KeyedStream(plan.seed, job_index, task_id, attempt)
        fails = rng.uniform() < plan.transient.probability
        straggled = rng.uniform() < plan.straggler.probability
        factor = 1.0
        if plan.noise is not None:
            if plan.noise.kind == "lognormal":
                try:
                    factor = math.exp(plan.noise.scale * rng.normal())
                except OverflowError:
                    factor = math.inf
            else:
                scale = plan.noise.scale
                factor = (1.0 - scale) + 2.0 * scale * rng.uniform()
        if straggled:
            factor *= plan.straggler.slowdown
        realized = nominal_runtime * factor
        if not realized < _RUNTIME_LIMIT:
            slowdown = plan.straggler.slowdown if straggled else 1.0
            if realized / slowdown < _RUNTIME_LIMIT:
                cause = f"slowdown={slowdown!r}"
            else:
                cause = f"noise={plan.noise.scale!r}"  # type: ignore[union-attr]
            raise ConfigError(
                f"{cause} makes attempt {attempt} of task {task_id} of job "
                f"{job_index} run {realized:g} slots, not below 2**63"
            )
        runtime = max(1, int(round(realized)))
        return TaskAttempt(runtime=runtime, fails=fails, straggled=straggled)

    def backoff(self, attempt: int) -> int:
        """Backoff delay after the ``attempt``-th transient failure."""
        return self.plan.retry.delay(attempt)

    @property
    def max_attempts(self) -> int:
        """Transient-failure attempt budget before a job is failed."""
        return self.plan.retry.max_attempts

    # ------------------------------------------------------------------ #
    # cluster timeline
    # ------------------------------------------------------------------ #

    def timeline(self) -> List[TimelineEntry]:
        """Crash/recovery events sorted by (time, recovery-first, machine).

        Recoveries sort before crashes at equal times so a staggered
        plan's capacity never transiently over-subscribes.
        """

        entries: List[TimelineEntry] = []
        for crash in self.plan.crashes:
            entries.append(
                TimelineEntry(crash.at, 1, "crash", crash.machine, crash.capacity)
            )
            if crash.recover_at is not None:
                entries.append(
                    TimelineEntry(
                        crash.recover_at, 0, "recovery", crash.machine, crash.capacity
                    )
                )
        entries.sort(key=lambda e: (e.time, e.order, e.machine))
        return entries


class TimelineCursor:
    """Consume a crash/recovery timeline in injector order.

    The kernel's global tie-break puts crashes before recoveries at
    equal times, but the timeline's own documented intra-tie order is
    the opposite (recovery first, so capacity never transiently
    over-subscribes).  The cursor reconciles the two: each entry is
    scheduled as a kernel event of its own class, but whichever event
    pops *first* at a given instant drains **every** entry due by then
    in timeline order; the later events for already-consumed entries
    then drain nothing.  The realized fault order therefore always
    matches :meth:`FaultInjector.timeline`.
    """

    __slots__ = ("_entries", "_pos")

    def __init__(self, entries: List[TimelineEntry]) -> None:
        self._entries = list(entries)
        self._pos = 0

    @property
    def entries(self) -> List[TimelineEntry]:
        """The full timeline, consumed or not."""
        return list(self._entries)

    @property
    def exhausted(self) -> bool:
        """Whether every entry has been drained."""
        return self._pos >= len(self._entries)

    def drain(self, now: int) -> List[TimelineEntry]:
        """Pop all unconsumed entries with ``time <= now``, in order."""
        fired: List[TimelineEntry] = []
        entries = self._entries
        while self._pos < len(entries) and entries[self._pos].time <= now:
            fired.append(entries[self._pos])
            self._pos += 1
        return fired
