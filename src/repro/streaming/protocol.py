"""Wire protocol of the scheduling service: newline-delimited JSON.

One frame is one JSON object on one line (NDJSON) — trivially framed
over any byte stream, readable with ``nc``, greppable in logs.  Every
frame carries a ``type``; request frames carry a caller-chosen ``id``
echoed verbatim in the matching reply, so a client may pipeline many
requests over one connection and correlate out-of-order replies.

Client → server::

    {"type": "schedule", "id": "job-1", "graph": {...}, "cluster": {...}}
    {"type": "ping"}
    {"type": "subscribe"}            # telemetry stream on this connection
    {"type": "drain"}                # finish in-flight work, then shut down

Server → client::

    {"type": "schedule.reply", "id": "job-1", "schedule": {...},
     "batch": {"tick": 3, "size": 2}}
    {"type": "error", "id": "job-1", "error": "..."}
    {"type": "pong"} / {"type": "subscribe.ack"} / {"type": "drain.ack", ...}
    {"type": "telemetry", "event": "serve.batch", ...}

``graph`` uses the :mod:`repro.dag.io` schema and ``schedule`` the
:mod:`repro.metrics.export` schema, both versioned, so the wire format
inherits their compatibility story.  All malformed input surfaces as
:class:`~repro.errors.ProtocolError` — the daemon answers an ``error``
frame and keeps the connection alive (one bad client frame must not
take down a shared scheduler).

Numbers in a ``schedule`` frame are **JSON integers** (an exact ``int``
after decoding: not ``true``, not ``2.0``, not ``"2"``): a task's ``id``
and ``runtime``, every demand, both endpoints of every edge,
``cluster.capacities`` / ``available`` / ``now``, ``deadline`` and both
ends of every ``frozen`` / ``pinned`` span, whose *keys* are decimal
strings because JSON object keys are strings.  Anything else — ``2.7``,
``NaN``, ``1e999``, a negative demand, a runtime of 0 — is refused with
an ``error`` frame, never truncated or coerced, and nothing but
``ProtocolError`` leaves :func:`parse_schedule` (DESIGN.md Sec. 13.6
lists what used to).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..dag.io import graph_from_dict, graph_to_dict, is_integer_list
from ..errors import ConfigError, GraphError, ProtocolError, TraceError
from ..metrics.export import schedule_to_dict
from ..metrics.schedule import Schedule
from ..schedulers.base import ClusterSnapshot, ScheduleRequest

__all__ = [
    "DRAIN",
    "DRAIN_ACK",
    "ERROR",
    "PING",
    "PONG",
    "REPLY",
    "SCHEDULE",
    "SUBSCRIBE",
    "SUBSCRIBE_ACK",
    "TELEMETRY",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "parse_schedule",
    "reply_frame",
    "schedule_frame",
]

SCHEDULE = "schedule"
REPLY = "schedule.reply"
ERROR = "error"
PING = "ping"
PONG = "pong"
SUBSCRIBE = "subscribe"
SUBSCRIBE_ACK = "subscribe.ack"
DRAIN = "drain"
DRAIN_ACK = "drain.ack"
TELEMETRY = "telemetry"


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """Serialize one frame: compact sorted-key JSON plus the newline."""
    line = json.dumps(frame, sort_keys=True, separators=(",", ":"))
    return line.encode("utf-8") + b"\n"


def decode_frame(line: Union[bytes, str]) -> Dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises:
        ProtocolError: on undecodable bytes, invalid JSON, nesting deeper
            than the parser's recursion allows, a non-object payload, or
            a missing/non-string ``type``.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProtocolError("frame is nested too deeply") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    ftype = frame.get("type")
    if not isinstance(ftype, str) or not ftype:
        raise ProtocolError("frame is missing a string 'type'")
    return frame


# ---------------------------------------------------------------------- #
# schedule requests
# ---------------------------------------------------------------------- #


def schedule_frame(
    request_id: str,
    request: ScheduleRequest,
) -> Dict[str, Any]:
    """Client-side builder: one ``schedule`` frame from a request."""
    frame: Dict[str, Any] = {
        "type": SCHEDULE,
        "id": request_id,
        "graph": graph_to_dict(request.graph),
    }
    if request.cluster is not None:
        frame["cluster"] = {
            "capacities": list(request.cluster.capacities),
            "available": list(request.cluster.available),
            "now": request.cluster.now,
        }
    if request.frozen:
        frame["frozen"] = {str(t): list(span) for t, span in request.frozen.items()}
    if request.pinned:
        frame["pinned"] = {str(t): list(span) for t, span in request.pinned.items()}
    if request.deadline is not None:
        frame["deadline"] = request.deadline
    return frame


def _integers(raw: Any, what: str) -> Tuple[int, ...]:
    if not is_integer_list(raw):
        raise ProtocolError(f"{what} must be a list of JSON integers")
    return tuple(raw)


def _parse_placements(raw: Any, field: str) -> Dict[int, Tuple[int, int]]:
    if not isinstance(raw, dict):
        raise ProtocolError(f"{field} must be an object of task_id -> [start, finish]")
    spans: Dict[int, Tuple[int, int]] = {}
    for key, value in raw.items():
        try:
            tid = int(key)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed {field} key {key!r}: {exc}") from exc
        span = _integers(value, f"{field} entry {key!r}")
        if len(span) != 2:
            raise ProtocolError(f"{field} entry {key!r} must be [start, finish]")
        spans[tid] = (span[0], span[1])
    return spans


def _parse_cluster(raw: Any) -> ClusterSnapshot:
    if not isinstance(raw, dict):
        raise ProtocolError("cluster must be an object")
    capacities = _integers(raw.get("capacities"), "cluster capacities")
    available = capacities
    if "available" in raw:
        available = _integers(raw["available"], "cluster available")
    at = raw.get("now", 0)
    if type(at) is not int:
        raise ProtocolError("cluster now must be a JSON integer")
    try:
        return ClusterSnapshot(capacities=capacities, available=available, now=at)
    except ConfigError as exc:
        raise ProtocolError(str(exc)) from exc


def parse_schedule(frame: Mapping[str, Any]) -> Tuple[str, ScheduleRequest]:
    """Server-side: extract ``(request_id, ScheduleRequest)`` from a frame.

    Raises:
        ProtocolError: on a wrong type, a missing/empty id, or any
            malformed graph/cluster/placement field — and nothing else:
            a number that is not a JSON integer, or one a ``Task`` or a
            ``ClusterSnapshot`` refuses, is this error too.
    """
    if frame.get("type") != SCHEDULE:
        raise ProtocolError(f"expected a {SCHEDULE!r} frame, got {frame.get('type')!r}")
    request_id = frame.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("schedule frame is missing a string 'id'")
    graph_payload = frame.get("graph")
    if graph_payload is None:
        raise ProtocolError("schedule frame is missing 'graph'")
    try:
        graph = graph_from_dict(graph_payload)
    except (TraceError, GraphError) as exc:
        raise ProtocolError(f"bad graph payload: {exc}") from exc
    cluster: Optional[ClusterSnapshot] = None
    if "cluster" in frame:
        cluster = _parse_cluster(frame["cluster"])
    deadline = frame.get("deadline")
    if deadline is not None and type(deadline) is not int:
        raise ProtocolError("deadline must be a JSON integer")
    request = ScheduleRequest(
        graph=graph,
        cluster=cluster,
        frozen=_parse_placements(frame.get("frozen", {}), "frozen"),
        pinned=_parse_placements(frame.get("pinned", {}), "pinned"),
        deadline=deadline,
    )
    return request_id, request


# ---------------------------------------------------------------------- #
# replies
# ---------------------------------------------------------------------- #


def reply_frame(
    request_id: str,
    schedule: Schedule,
    tick: int,
    batch_size: int,
) -> Dict[str, Any]:
    """One ``schedule.reply`` frame; ``batch`` records the serving tick."""
    return {
        "type": REPLY,
        "id": request_id,
        "schedule": schedule_to_dict(schedule),
        "batch": {"tick": tick, "size": batch_size},
    }


def error_frame(request_id: Optional[str], message: str) -> Dict[str, Any]:
    """One ``error`` frame (id echoes the request when it had one)."""
    frame: Dict[str, Any] = {"type": ERROR, "error": message}
    if request_id is not None:
        frame["id"] = request_id
    return frame
