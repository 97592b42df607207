"""Trace containers and JSON round-tripping.

A :class:`Trace` is an ordered collection of :class:`TraceJob` entries,
each wrapping one MapReduce :class:`TaskGraph` plus its stage metadata
(how many map/reduce tasks, their runtimes) so workload characterization
does not have to re-derive stages from task names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Union

from ..dag.graph import TaskGraph
from ..dag.io import graph_from_dict, graph_to_dict, is_integer_list
from ..errors import GraphError, TraceError

__all__ = ["TraceJob", "Trace"]

_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceJob:
    """One MapReduce job from a (synthetic) production trace.

    Attributes:
        job_id: unique identifier within the trace.
        graph: the two-stage task graph (map ids first, then reduce ids).
        num_map: number of map tasks.
        num_reduce: number of reduce tasks.
        map_runtimes: per-map-task runtimes (slots == seconds here).
        reduce_runtimes: per-reduce-task runtimes.
    """

    job_id: int
    graph: TaskGraph
    num_map: int
    num_reduce: int
    map_runtimes: tuple
    reduce_runtimes: tuple

    def __post_init__(self) -> None:
        if self.num_map != len(self.map_runtimes):
            raise TraceError(f"job {self.job_id}: map runtime count mismatch")
        if self.num_reduce != len(self.reduce_runtimes):
            raise TraceError(f"job {self.job_id}: reduce runtime count mismatch")
        if self.graph.num_tasks != self.num_map + self.num_reduce:
            raise TraceError(
                f"job {self.job_id}: graph has {self.graph.num_tasks} tasks, "
                f"metadata says {self.num_map + self.num_reduce}"
            )

    @property
    def num_tasks(self) -> int:
        """Total task count."""
        return self.num_map + self.num_reduce

    def mean_map_runtime(self) -> float:
        """Mean runtime of the map stage."""
        return sum(self.map_runtimes) / self.num_map

    def mean_reduce_runtime(self) -> float:
        """Mean runtime of the reduce stage."""
        return sum(self.reduce_runtimes) / self.num_reduce


@dataclass
class Trace:
    """An ordered collection of trace jobs with JSON persistence."""

    jobs: List[TraceJob] = field(default_factory=list)
    name: str = "trace"

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[TraceJob]:
        return iter(self.jobs)

    def __getitem__(self, index: int) -> TraceJob:
        return self.jobs[index]

    def graphs(self) -> List[TaskGraph]:
        """Task graphs of every job, in trace order."""
        return [job.graph for job in self.jobs]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "version": _SCHEMA_VERSION,
            "name": self.name,
            "jobs": [
                {
                    "job_id": job.job_id,
                    "num_map": job.num_map,
                    "num_reduce": job.num_reduce,
                    "map_runtimes": list(job.map_runtimes),
                    "reduce_runtimes": list(job.reduce_runtimes),
                    "graph": graph_to_dict(job.graph),
                }
                for job in self.jobs
            ],
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Trace":
        """Inverse of :meth:`to_dict`.

        Numbers must be JSON integers — ``job_id``, the two stage sizes
        and every runtime (which is also >= 1); a float, a boolean or a
        numeric string is rejected rather than truncated or coerced.

        Raises:
            TraceError: on schema mismatches or malformed entries.
        """
        if not isinstance(payload, dict):
            raise TraceError("trace payload must be a dict")
        if payload.get("version") != _SCHEMA_VERSION:
            raise TraceError(
                f"unsupported trace schema version {payload.get('version')!r}"
            )
        jobs: List[TraceJob] = []
        try:
            for entry in payload["jobs"]:
                job_id, num_map, num_reduce = (
                    entry["job_id"], entry["num_map"], entry["num_reduce"]
                )
                maps, reduces = entry["map_runtimes"], entry["reduce_runtimes"]
                if not is_integer_list([job_id, num_map, num_reduce]):
                    raise TraceError(
                        f"job #{len(jobs)}: job_id, num_map and num_reduce "
                        "must be JSON integers"
                    )
                if not (
                    is_integer_list(maps)
                    and is_integer_list(reduces)
                    and all(runtime >= 1 for runtime in maps + reduces)
                ):
                    raise TraceError(
                        f"job {job_id}: runtimes must be lists of JSON "
                        "integers >= 1"
                    )
                jobs.append(
                    TraceJob(
                        job_id=job_id,
                        graph=graph_from_dict(entry["graph"]),
                        num_map=num_map,
                        num_reduce=num_reduce,
                        map_runtimes=tuple(maps),
                        reduce_runtimes=tuple(reduces),
                    )
                )
        except (KeyError, TypeError, GraphError) as exc:
            raise TraceError(f"malformed trace job entry: {exc}") from exc
        return Trace(jobs=jobs, name=str(payload.get("name", "trace")))

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as one line of JSON, creating its parent
        directory."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict()) + "\n")

    @staticmethod
    def load(path: Union[str, Path]) -> "Trace":
        """Load a trace written by :meth:`save`.

        Raises:
            TraceError: on an unreadable file, invalid JSON or a payload
                :meth:`from_dict` rejects.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise TraceError(f"cannot read trace {path}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise TraceError(f"invalid JSON in {path}: {exc}") from exc
        return Trace.from_dict(payload)
