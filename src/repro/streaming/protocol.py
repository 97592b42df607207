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
and ``runtime``, every demand, both endpoints of every edge and
``cluster.capacities``.  Anything else — ``2.7``, ``NaN``, ``1e999``, a
negative demand, a runtime of 0 — is refused with an ``error`` frame,
never truncated or coerced, and nothing but ``ProtocolError`` leaves
:func:`parse_schedule` (DESIGN.md Sec. 13.6 lists what used to).  A key
the protocol does not read is ignored, whatever its value.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..dag.io import graph_from_dict, graph_to_dict, is_integer_list
from ..errors import ConfigError, GraphError, ProtocolError, TraceError
from ..metrics.export import schedule_json, schedule_to_dict
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
    "encode_reply",
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
        frame["cluster"] = {"capacities": list(request.cluster.capacities)}
    return frame


def _integers(raw: Any, what: str) -> Tuple[int, ...]:
    if not is_integer_list(raw):
        raise ProtocolError(f"{what} must be a list of JSON integers")
    return tuple(raw)


def _parse_cluster(raw: Any) -> ClusterSnapshot:
    if not isinstance(raw, dict):
        raise ProtocolError("cluster must be an object")
    capacities = _integers(raw.get("capacities"), "cluster capacities")
    try:
        return ClusterSnapshot(capacities=capacities)
    except ConfigError as exc:
        raise ProtocolError(str(exc)) from exc


def parse_schedule(frame: Mapping[str, Any]) -> Tuple[str, ScheduleRequest]:
    """Server-side: extract ``(request_id, ScheduleRequest)`` from a frame.

    Raises:
        ProtocolError: on a wrong type, a missing/empty id, or a
            malformed graph or cluster — and nothing else: a number that
            is not a JSON integer, or one a ``Task`` or a
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
    return request_id, ScheduleRequest(graph=graph, cluster=cluster)


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


def encode_reply(
    request_id: str,
    schedule: Schedule,
    tick: int,
    batch_size: int,
) -> bytes:
    """The wire line of :func:`reply_frame`, rendered from the schedule.

    The bytes are ``encode_frame(reply_frame(...))``'s, which stays the
    reference: this writes the envelope around
    :func:`~repro.metrics.export.schedule_json`'s text, and a schedule
    that function declines takes the reference path, so the bytes are the
    reference's, or its error, whatever the schedule holds.
    """
    body = schedule_json(schedule)
    if body is None:
        return encode_frame(reply_frame(request_id, schedule, tick, batch_size))
    return (
        f'{{"batch":{{"size":{batch_size},"tick":{tick}}},'
        f'"id":{json.dumps(request_id)},'
        f'"schedule":{body},'
        f'"type":"{REPLY}"}}\n'
    ).encode("utf-8")


def error_frame(request_id: Optional[str], message: str) -> Dict[str, Any]:
    """One ``error`` frame (id echoes the request when it had one)."""
    frame: Dict[str, Any] = {"type": ERROR, "error": message}
    if request_id is not None:
        frame["id"] = request_id
    return frame
