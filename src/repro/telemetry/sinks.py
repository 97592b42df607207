"""Event sinks: where a pipeline's records go.

Two built-ins cover the use cases in this repository:

* :class:`InMemorySink` — bounded ring; backs programmatic access and
  post-run export, and is the default capture target.
* :class:`JsonlSink` — streams the versioned JSONL layout of
  :mod:`repro.telemetry.events` to a file (header object first, one
  event per line).  Written incrementally so a crashed run still leaves
  a readable prefix.

Progress lines for a person at the terminal are not a sink: the caller
writes them to stderr itself (``Trainer.train(log_every=...)`` does),
so they appear whether or not a pipeline is active.

Sinks are deliberately synchronous and unbuffered-by-default: traces in
this repository are produced by single-process experiments where the
interesting failure mode is "the run died and took the trace with it",
not sink throughput.
"""

from __future__ import annotations

import abc
import json
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, TextIO, Union

from .events import SCHEMA_VERSION, TelemetryEvent

__all__ = [
    "Sink",
    "InMemorySink",
    "JsonlSink",
]


class Sink(abc.ABC):
    """One destination for telemetry events."""

    @abc.abstractmethod
    def handle(self, event: TelemetryEvent) -> None:
        """Consume one event."""

    def flush(self) -> None:
        """Force buffered output out (no-op by default)."""

    def close(self) -> None:
        """Release resources; the sink receives no further events."""


class InMemorySink(Sink):
    """Bounded in-memory event ring (oldest events drop first)."""

    def __init__(self, max_events: int = 200_000) -> None:
        self._ring: Deque[TelemetryEvent] = deque(maxlen=max_events)
        self.dropped = 0

    def handle(self, event: TelemetryEvent) -> None:
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(event)

    def events(self) -> List[TelemetryEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class JsonlSink(Sink):
    """Stream events to a JSONL file, header line first."""

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional[TextIO] = self.path.open("w", encoding="utf-8")
        header: Dict[str, Any] = {"schema": SCHEMA_VERSION, "kind": "header"}
        if meta:
            header["meta"] = meta
        self._file.write(json.dumps(header) + "\n")

    def handle(self, event: TelemetryEvent) -> None:
        if self._file is not None:
            self._file.write(json.dumps(event.as_dict()) + "\n")

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
