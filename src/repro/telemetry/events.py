"""The structured event record and its JSONL wire format.

Everything a pipeline observes — span completions, point events, log
lines, metric samples and end-of-run metric snapshots — is normalized
into one flat :class:`TelemetryEvent` record, so sinks and the offline
analyzer never branch on producer-specific shapes.  The JSONL layout is
versioned (:data:`SCHEMA_VERSION`): a file starts with one header object
and then carries one event object per line, and the reader rejects
schema versions it does not understand instead of mis-parsing them.

Event kinds:

* ``span`` — a completed timed region (``duration_us`` set, ``depth`` /
  ``parent`` describe nesting at completion time).
* ``point`` — an instantaneous structured event (attributes only).
* ``log`` — a human-readable line (``message`` attribute), recorded
  alongside the stderr line its producer writes.
* ``series`` — one sample of a step-indexed metric series (``step`` and
  ``value`` set), e.g. a per-epoch training curve.
* ``metric`` — an end-of-run snapshot of a counter / gauge / histogram,
  emitted when the pipeline flushes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..errors import ConfigError

__all__ = ["SCHEMA_VERSION", "EVENT_KINDS", "TelemetryEvent"]

#: Version of the JSONL trace layout; bump on incompatible change.
SCHEMA_VERSION = 1

EVENT_KINDS = ("span", "point", "log", "series", "metric")

#: Scalar attribute types allowed on events (everything else is repr()d
#: at emit time so a trace is always serializable).
_SCALARS = (str, int, float, bool, type(None))


def _clean_attrs(attrs: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        key: value if isinstance(value, _SCALARS) else repr(value)
        for key, value in attrs.items()
    }


@dataclass(frozen=True)
class TelemetryEvent:
    """One record of the structured event log.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        name: dotted event name, e.g. ``"mcts.decision"``.
        seq: per-pipeline monotonically increasing sequence number —
            the total order of the trace (wall clocks can tie).
        wall_time: absolute UNIX timestamp at emit time.
        duration_us: span duration in microseconds (``span`` only).
        depth: span nesting depth at completion (``span`` only).
        parent: name of the enclosing span, if any (``span`` only).
        step: series index, e.g. the training epoch (``series`` only).
        value: sample value (``series`` / ``metric``).
        attrs: structured scalar attributes.
    """

    kind: str
    name: str
    seq: int
    wall_time: float
    duration_us: Optional[float] = None
    depth: int = 0
    parent: Optional[str] = None
    step: Optional[int] = None
    value: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Compact JSON object: unset optional fields are omitted."""
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "seq": self.seq,
            "t": self.wall_time,
        }
        if self.duration_us is not None:
            payload["dur_us"] = self.duration_us
        if self.depth:
            payload["depth"] = self.depth
        if self.parent is not None:
            payload["parent"] = self.parent
        if self.step is not None:
            payload["step"] = self.step
        if self.value is not None:
            payload["value"] = self.value
        if self.attrs:
            payload["attrs"] = _clean_attrs(self.attrs)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TelemetryEvent":
        """Inverse of :meth:`as_dict`.

        Raises:
            ConfigError: on a malformed record (unknown kind or missing
                required fields) — the analyzer surfaces the bad line.
        """
        try:
            kind = payload["kind"]
            name = payload["name"]
            seq = int(payload["seq"])
            wall_time = float(payload["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed telemetry event {payload!r}") from exc
        if kind not in EVENT_KINDS:
            raise ConfigError(f"unknown telemetry event kind {kind!r}")
        duration = payload.get("dur_us")
        step = payload.get("step")
        value = payload.get("value")
        return cls(
            kind=kind,
            name=str(name),
            seq=seq,
            wall_time=wall_time,
            duration_us=float(duration) if duration is not None else None,
            depth=int(payload.get("depth", 0)),
            parent=payload.get("parent"),
            step=int(step) if step is not None else None,
            value=float(value) if value is not None else None,
            attrs=dict(payload.get("attrs", {})),
        )
