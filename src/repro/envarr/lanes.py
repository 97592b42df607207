"""Environment states as dense lanes: the batched kernels' input format.

There is one scheduling environment, :class:`repro.env.SchedulingEnv`; it
keeps its state in the shapes a scalar step wants (a running-task heap, a
ready list of task ids, an unmet-parents dict).  The lockstep playout
kernel, :class:`~repro.envarr.batch.BatchedPlayouts`, wants ``B`` states as
rows of dense matrices indexed by :class:`GraphArrays`' dense task index.
:func:`lane_snapshot` is the only conversion between the two, and the only
code outside :mod:`repro.env` / :mod:`repro.cluster` that reads the
environment's private state.

Because the dense index order equals the task-id order (see
:mod:`repro.envarr.graphdata`), every id tie-break of the environment
(arrival order within one completion, completion order at one instant)
is the corresponding index tie-break in the kernels.
"""

from __future__ import annotations

from itertools import chain
from typing import List, NamedTuple, Sequence

import numpy as np

from ..config import EnvConfig
from ..env.scheduling_env import SchedulingEnv
from ..errors import EnvironmentStateError
from .graphdata import GraphArrays

__all__ = ["INF", "LaneSnapshot", "lane_snapshot"]

#: Finish-time sentinel for "not running" (int64 max, so a row ``min``
#: over an idle lane is the sentinel itself).
INF: int = int(np.iinfo(np.int64).max)


class LaneSnapshot(NamedTuple):
    """``B`` environment states over one graph, copied into dense arrays.

    A task is *pending* while ``unmet > 0``; otherwise it is in ``ready``,
    running (``finish != INF``) or finished.
    """

    #: ``(B, R)`` free slots per resource.
    free: np.ndarray
    #: ``(B, N)`` finish slot of each running task, :data:`INF` elsewhere.
    finish: np.ndarray
    #: ``(B,)`` current slot.
    now: np.ndarray
    #: ``(B, N)`` unfinished-parent countdown.
    unmet: np.ndarray
    #: per lane, the ready queue as dense indices in arrival order (the
    #: visibility window is its first ``max_ready`` entries).
    ready: List[List[int]]
    #: ``(B,)`` number of finished tasks.
    num_finished: np.ndarray


def lane_snapshot(
    arrays: GraphArrays, config: EnvConfig, envs: Sequence[SchedulingEnv]
) -> LaneSnapshot:
    """Copy the state of ``envs`` into dense lanes; never mutates them.

    Raises:
        EnvironmentStateError: if a lane runs another graph than
            ``arrays`` was compiled from, or under another configuration
            than ``config`` — its ids or capacities would be misread.
    """
    graph = arrays.graph
    batch = len(envs)
    index_of = arrays.index_of
    rows: List[int] = []
    cols: List[int] = []
    times: List[int] = []
    ready: List[List[int]] = []
    for lane, env in enumerate(envs):
        if env.graph is not graph:
            raise EnvironmentStateError(
                "batched lanes must all run the kernel's graph"
            )
        if env.config is not config and env.config != config:
            raise EnvironmentStateError(
                "batched lanes must all share the kernel's EnvConfig"
            )
        for finish_time, task_id, _demands in env.cluster._running:
            rows.append(lane)
            cols.append(index_of[task_id])
            times.append(finish_time)
        ready.append([index_of[task_id] for task_id in env._ready])
    finish = np.full((batch, arrays.num_tasks), INF, dtype=np.int64)
    if rows:
        finish[rows, cols] = times
    # ``_unmet`` is keyed in the graph's topological order.
    unmet = np.empty((batch, arrays.num_tasks), dtype=np.int64)
    unmet[:, arrays.topo] = np.fromiter(
        chain.from_iterable(env._unmet.values() for env in envs),
        np.int64,
        batch * arrays.num_tasks,
    ).reshape(batch, arrays.num_tasks)
    return LaneSnapshot(
        free=np.array(
            [env.cluster._available for env in envs], dtype=np.int64
        ).reshape(batch, arrays.num_resources),
        finish=finish,
        now=np.fromiter((env.cluster.now for env in envs), np.int64, batch),
        unmet=unmet,
        ready=ready,
        num_finished=np.fromiter(
            (len(env._finished) for env in envs), np.int64, batch
        ),
    )
