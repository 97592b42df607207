"""Deterministic discrete-event simulation kernel.

``repro.sim`` is the single source of time-advance truth for streaming
simulations: a stable-ordered :class:`EventQueue` (a binary heap keyed
by ``(time, priority_class, seq)``), typed :class:`Event` records that
carry the callable handling them, and a :class:`SimKernel` that owns
the integer clock, runs each due event's handler and polls
:class:`SimProcess` event sources (e.g. the cluster adapter that turns
task completions into kernel events).

Determinism contract: two events never race.  At equal times the
documented priority classes order them (crash < recovery < completion <
retry-ready < arrival < route < steal < replan — see
:class:`EventClass`), and within
one ``(time, class)`` bucket the monotonically increasing push sequence
number breaks the tie, so a run's realized event order is a pure
function of what was scheduled.  The online executor
(:mod:`repro.online`), the fault layer and dynamic rescheduling are all
layered on this kernel.
"""

from .events import Event, EventClass
from .kernel import SimKernel, SimProcess
from .queue import EventQueue

__all__ = [
    "Event",
    "EventClass",
    "EventQueue",
    "SimKernel",
    "SimProcess",
]
