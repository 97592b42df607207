"""Admission control and bounded-queue backpressure.

An open system cannot promise to run everything it is offered: under
sustained overload either latency grows without bound or work is shed.
The controller makes that decision explicit at each arrival:

* **admit** — the job enters the cluster immediately (the closed-batch
  behaviour; always the answer when ``max_concurrent`` is unset);
* **queue** — the cluster is at its concurrency limit; the job waits in
  a FIFO backlog and its queueing delay is charged to the system, not
  the scheduler;
* **reject** — the backlog itself is full (``max_queue``); the job is
  shed and *reported* (never silently dropped — the streaming analogue
  of the fault layer's no-silent-loss rule).

The controller owns only the decision and the backlog; *when* backlog
jobs are released is the engine's call (after each settled instant, so
an admission never observes a half-applied cluster state).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..dag.graph import TaskGraph
from ..errors import ConfigError

__all__ = ["ADMIT", "QUEUE", "REJECT", "AdmissionConfig", "AdmissionController", "QueuedJob"]

ADMIT = "admit"
QUEUE = "queue"
REJECT = "reject"


@dataclass(frozen=True)
class AdmissionConfig:
    """Backpressure limits; ``None`` means unbounded.

    Attributes:
        max_concurrent: jobs allowed in the cluster at once (admitted,
            not yet completed/failed).  Unset reproduces closed-batch
            semantics: every arrival admits instantly.
        max_queue: backlog capacity once the concurrency limit is hit;
            a full backlog sheds new arrivals.
    """

    max_concurrent: Optional[int] = None
    max_queue: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ConfigError("max_concurrent must be >= 1 when set")
        if self.max_queue is not None and self.max_queue < 0:
            raise ConfigError("max_queue must be >= 0 when set")
        if self.max_queue is not None and self.max_concurrent is None:
            raise ConfigError("max_queue without max_concurrent never engages")


@dataclass(frozen=True)
class QueuedJob:
    """One backlogged arrival awaiting admission."""

    index: int
    arrival_time: int
    graph: TaskGraph


class AdmissionController:
    """FIFO backpressure state for one run."""

    __slots__ = ("config", "backlog")

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self.backlog: Deque[QueuedJob] = deque()

    def offer(self, job: QueuedJob, active_count: int) -> str:
        """Decide one arrival; a queued job is stored in the backlog.

        Returns:
            :data:`ADMIT`, :data:`QUEUE`, or :data:`REJECT`.
        """
        limit = self.config.max_concurrent
        if limit is None or (active_count < limit and not self.backlog):
            return ADMIT
        cap = self.config.max_queue
        if cap is not None and len(self.backlog) >= cap:
            return REJECT
        self.backlog.append(job)
        return QUEUE

    def release(self, active_count: int) -> List[QueuedJob]:
        """Pop backlog jobs that now fit under the concurrency limit."""
        limit = self.config.max_concurrent
        released: List[QueuedJob] = []
        while self.backlog and (limit is None or active_count + len(released) < limit):
            released.append(self.backlog.popleft())
        return released

    def __len__(self) -> int:
        return len(self.backlog)
