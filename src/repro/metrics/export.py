"""Schedule serialization for external tooling.

``schedule_to_dict`` / ``schedule_from_dict`` round-trip a
:class:`Schedule` through plain JSON, so schedules can be archived,
diffed, or fed to external Gantt/trace viewers (the format is one record
per task with explicit start/finish — trivially convertible to Chrome
``about:tracing`` or Perfetto JSON).
"""

from __future__ import annotations

import json
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..dag.task import exact_ints
from ..errors import ScheduleError
from .schedule import Schedule, ScheduledTask

__all__ = [
    "schedule_to_dict",
    "schedule_json",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
    "to_chrome_trace",
]

_SCHEMA_VERSION = 1


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """JSON-compatible representation of ``schedule``."""

    return {
        "version": _SCHEMA_VERSION,
        "scheduler": schedule.scheduler,
        "wall_time": schedule.wall_time,
        "makespan": schedule.makespan,
        "placements": [
            {"task_id": p.task_id, "start": p.start, "finish": p.finish}
            for p in schedule.placements
        ],
    }


_PLACEMENT_FIELDS = attrgetter("finish", "start", "task_id")
_PLACEMENT = '{"finish":%s,"start":%s,"task_id":%s}'


def schedule_json(schedule: Schedule) -> Optional[str]:
    """:func:`schedule_to_dict` as compact sorted-key JSON text, written
    straight from the placements' fields.

    The text is ``json.dumps(schedule_to_dict(schedule), sort_keys=True,
    separators=(",", ":"))``, which stays the reference.  ``None`` when a
    placement number is not an exact ``int`` (a float, a NumPy integer, a
    boolean): the caller then writes such a schedule through the reference.
    """
    placements = schedule.placements
    numbers = tuple(chain.from_iterable(map(_PLACEMENT_FIELDS, placements)))
    if not exact_ints(numbers):
        return None
    body = ",".join([_PLACEMENT] * len(placements)) % numbers
    return (
        f'{{"makespan":{max(numbers[::3], default=0)},'
        f'"placements":[{body}],'
        f'"scheduler":{json.dumps(schedule.scheduler)},'
        f'"version":{_SCHEMA_VERSION},'
        f'"wall_time":{json.dumps(schedule.wall_time)}}}'
    )


def schedule_from_dict(payload: Dict[str, Any]) -> Schedule:
    """Inverse of :func:`schedule_to_dict`.

    Raises:
        ScheduleError: on malformed payloads, wrong versions, or a stored
            makespan inconsistent with the placements.
    """

    if not isinstance(payload, dict):
        raise ScheduleError("schedule payload must be a dict")
    if payload.get("version") != _SCHEMA_VERSION:
        raise ScheduleError(
            f"unsupported schedule schema version {payload.get('version')!r}"
        )
    try:
        placements = tuple(
            ScheduledTask(
                task_id=int(entry["task_id"]),
                start=int(entry["start"]),
                finish=int(entry["finish"]),
            )
            for entry in payload["placements"]
        )
        schedule = Schedule(
            placements,
            scheduler=str(payload.get("scheduler", "unknown")),
            wall_time=float(payload.get("wall_time", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule payload: {exc}") from exc
    stored = payload.get("makespan")
    if stored is not None and int(stored) != schedule.makespan:
        raise ScheduleError(
            f"stored makespan {stored} != computed {schedule.makespan}"
        )
    return schedule


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> None:
    """Write ``schedule`` to ``path`` as JSON."""

    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: Union[str, Path]) -> Schedule:
    """Load a schedule previously written by :func:`save_schedule`."""

    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"invalid JSON in {path}: {exc}") from exc
    return schedule_from_dict(payload)


def to_chrome_trace(
    schedule: Schedule,
    graph=None,
    slot_microseconds: int = 1000,
) -> Dict[str, Any]:
    """Convert a schedule to Chrome ``about:tracing`` / Perfetto JSON.

    Each task becomes one complete ("X") event; concurrent tasks are
    spread over thread ids by a simple interval-graph coloring so lanes
    never overlap in the viewer.

    Args:
        schedule: the schedule to convert.
        graph: optional :class:`repro.dag.TaskGraph` supplying task names
            and demand annotations.
        slot_microseconds: visual scale (1 slot -> N microseconds).

    Returns:
        A dict with a ``traceEvents`` list, JSON-serializable as-is.
    """

    # Greedy interval coloring: assign the lowest free lane at each start.
    ordered = sorted(schedule.placements, key=lambda p: (p.start, p.task_id))
    lane_free_at: list[int] = []
    events = []
    for placement in ordered:
        lane = None
        for i, free_at in enumerate(lane_free_at):
            if free_at <= placement.start:
                lane = i
                break
        if lane is None:
            lane = len(lane_free_at)
            lane_free_at.append(0)
        lane_free_at[lane] = placement.finish

        name = f"task-{placement.task_id}"
        args: Dict[str, Any] = {"task_id": placement.task_id}
        if graph is not None:
            task = graph.task(placement.task_id)
            name = task.label()
            args["demands"] = list(task.demands)
            args["runtime_slots"] = task.runtime
        events.append(
            {
                "name": name,
                "ph": "X",
                "ts": placement.start * slot_microseconds,
                "dur": placement.duration * slot_microseconds,
                "pid": 1,
                "tid": lane + 1,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "scheduler": schedule.scheduler,
            "makespan_slots": schedule.makespan,
        },
    }
