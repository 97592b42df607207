"""Fused batched playouts: many rollouts per call, NumPy lockstep.

A sequential random playout costs one Python-level decision loop per
episode; :class:`BatchedPlayouts` advances ``B`` episodes per loop
iteration instead, holding every lane's state as rows of ``(B, N)``
matrices:

* ``finish`` — dense finish-time matrix (sentinel :data:`INF` when a task
  is not running); the event sweep is a row-wise ``min`` + mask.
* ``seq`` — ready-queue arrival stamps (sentinel when not ready); the
  visibility window is the ``max_ready`` smallest stamps per row.
* ``unmet`` — indegree countdown, decremented for all lanes at once via
  one ``released @ adjacency`` matmul.

Resource vectors are bit-packed SWAR-style (one int64 field per resource
plus a guard bit), so the per-iteration fit test over every lane × visible
task is three integer ops on a ``(B, N)`` matrix instead of an
``(B, N, R)`` tensor sweep; clusters whose packed width would exceed the 53
bits float64 carries exactly (released demand is summed by a BLAS matvec)
fall back to the tensor path automatically.

Each iteration performs exactly one MDP decision per live lane — schedule
a uniformly random fitting visible task, else process — so per-lane
trajectories follow the same work-conserving policy as
:meth:`SchedulingEnv.random_playout`.  Batched mode is seed-deterministic
(one shared generator, a fixed draw shape per iteration) but **not**
draw-for-draw identical to the sequential stream: lanes consume the
generator in lockstep rather than one episode at a time.  The unit tests
pin validity (every lane's starts satisfy all schedule invariants),
determinism, and distributional agreement with sequential playouts.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import EnvConfig
from ..env.scheduling_env import SchedulingEnv
from ..errors import EnvironmentStateError
from .graphdata import graph_arrays
from .lanes import INF, lane_snapshot

__all__ = ["BatchedPlayouts", "batch_random_playouts"]


def _pack_layout(capacities: Sequence[int]) -> Optional[Tuple[List[int], List[int]]]:
    """Per-resource (shift, width) layout for SWAR packing, or ``None``.

    Each resource gets ``bit_length(capacity)`` value bits plus one guard
    bit; ``None`` when the total exceeds 53 bits.  The packed words live
    in int64, but the demand a process step releases is accumulated as
    ``released @ demands_packed_f`` in float64: every partial sum is an
    integer below ``2 ** total`` (per field it never exceeds the
    capacity), which float64 represents exactly only up to ``2 ** 53``.
    """
    shifts: List[int] = []
    widths: List[int] = []
    offset = 0
    for capacity in capacities:
        width = int(capacity).bit_length()
        shifts.append(offset)
        widths.append(width)
        offset += width + 1  # + guard bit
    if offset > 53:
        return None
    return shifts, widths


class BatchedPlayouts:
    """Reusable lockstep playout kernel for one graph under one config.

    Args:
        graph_or_arrays: the job (or its compiled arrays) every lane plays.
        config: the lanes' environment configuration — capacities (for
            the packed fit test), process-action granularity and the
            visibility window width are read from it, so the kernel
            cannot disagree with its lanes.
    """

    def __init__(self, graph_or_arrays, config: EnvConfig) -> None:
        arrays = graph_arrays(graph_or_arrays)
        self.arrays = arrays
        self.config = config
        capacities = config.cluster.capacities
        n = arrays.num_tasks
        # Dense child adjacency for the vectorized indegree countdown:
        # released (B, N) @ adjacency (N, N) counts released parents per
        # child across the whole batch in one matmul.
        # float64 so the per-iteration matmuls hit BLAS instead of NumPy's
        # integer fallback loop; all values are small ints, exact in f64.
        adjacency = np.zeros((n, n), dtype=np.float64)
        adjacency[
            np.repeat(np.arange(n), np.diff(arrays.child_indptr)),
            arrays.child_indices,
        ] = 1.0
        self.adjacency = adjacency
        layout = _pack_layout(capacities)
        if layout is not None:
            shifts, widths = layout
            shift_arr = np.asarray(shifts, dtype=np.int64)
            self._packed = True
            #: demands as one packed int64 per task.
            self.demands_packed = (arrays.demands << shift_arr[None, :]).sum(
                axis=1
            )
            #: the packed demands as exact float64, for the BLAS matvec.
            self.demands_packed_f = self.demands_packed.astype(np.float64)
            #: one guard bit above each resource field.
            self.guard = int(
                sum(1 << (shift + width) for shift, width in zip(shifts, widths))
            )
            self._shifts = shift_arr
        else:
            self._packed = False
            self.demands_packed = np.zeros(n, dtype=np.int64)
            self.demands_packed_f = self.demands_packed.astype(np.float64)
            self.guard = 0
            self._shifts = np.zeros(len(capacities), dtype=np.int64)
        self.demands_f = arrays.demands.astype(np.float64)

    # ------------------------------------------------------------------ #

    def _pack_free(self, free_rows: np.ndarray) -> np.ndarray:
        """Pack per-lane free-capacity rows, guard bits pre-set."""
        return (free_rows << self._shifts[None, :]).sum(axis=1) + self.guard

    def states_from_envs(
        self, envs: Sequence[SchedulingEnv]
    ) -> Tuple[np.ndarray, ...]:
        """Stack the lanes' mutable state into batch matrices.

        Returns ``(free, finish, now, unmet, seq, num_ready, pending,
        fincount)``: the :func:`lane_snapshot` arrays plus ``seq`` — each
        ready task's queue position (:data:`INF` when not ready) — and the
        ``pending`` mask of tasks still waiting on a parent.
        """
        n = self.arrays.num_tasks
        batch = len(envs)
        lanes = lane_snapshot(self.arrays, self.config, envs)
        num_ready = np.fromiter(map(len, lanes.ready), np.int64, batch)
        total = int(num_ready.sum())
        seq = np.full((batch, n), INF, dtype=np.int64)
        if total:
            queue_starts = np.cumsum(num_ready) - num_ready
            seq[
                np.repeat(np.arange(batch), num_ready),
                np.fromiter(chain.from_iterable(lanes.ready), np.int64, total),
            ] = np.arange(total) - np.repeat(queue_starts, num_ready)
        return (
            lanes.free,
            lanes.finish,
            lanes.now,
            lanes.unmet,
            seq,
            num_ready,
            lanes.unmet > 0,
            lanes.num_finished,
        )

    def run(
        self,
        envs: Sequence[SchedulingEnv],
        rng: np.random.Generator,
        limit: int,
        record_starts: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Play every lane to completion; return per-lane makespans.

        The input environments are *read*, never mutated — each lane's
        state is copied into the batch matrices up front (MCTS hands leaf
        clones in and keeps them).

        Args:
            envs: lanes, all over this kernel's graph and config; none
                at all returns empty results.
            rng: shared generator; one ``(B,)`` uniform draw per iteration.
            limit: per-lane decision cap; exceeding it raises
                ``RuntimeError`` (a livelocked rollout is a bug).
            record_starts: also return the ``(B, N)`` start-slot matrix
                (``-1`` for tasks already running/finished at entry), so
                tests can verify every lane against the schedule
                invariants.

        Returns:
            ``(makespans, starts)`` with ``starts`` ``None`` unless
            requested.

        Raises:
            EnvironmentStateError: if a lane runs another graph or
                another ``EnvConfig`` than this kernel's.
        """
        arrays = self.arrays
        n = arrays.num_tasks
        batch = len(envs)
        demands = arrays.demands
        durations = arrays.durations
        demands_packed = self.demands_packed
        demands_packed_f = self.demands_packed_f
        demands_f = self.demands_f
        guard = self.guard
        packed = self._packed
        adjacency = self.adjacency
        window = self.config.max_ready
        until_completion = self.config.process_until_completion
        free, finish, now, unmet, seq, num_ready, pending, fincount = (
            self.states_from_envs(envs)
        )
        # Countdowns and counters as float64: the per-iteration updates are
        # BLAS matmuls (exact for these magnitudes), and comparisons against
        # exact small floats are as good as integer ones.
        unmet = unmet.astype(np.float64)
        fincount = fincount.astype(np.float64)
        if packed:
            free_packed = self._pack_free(free)
        else:
            free_packed = free  # alias so lane compaction can slice either
        starts = np.full((batch, n), -1, dtype=np.int64) if record_starts else None
        makespans = now.copy()
        alive = fincount != n
        num_alive = int(alive.sum())
        # Arrival stamps for tasks becoming ready mid-run: ``event * n +
        # index`` is strictly larger than any initial queue position
        # (< n), groups stamps by completion event, and orders ascending
        # index within one event — the same queue ordering as the scalar
        # environment, without a per-iteration cumsum.
        event = np.ones(batch, dtype=np.int64)
        # Row map back to the caller's lanes: finished lanes are compacted
        # away mid-run, so row ``i`` of the working arrays is the caller's
        # lane ``lanes[i]``.
        lanes = np.arange(batch)
        keys = np.empty((batch, n), dtype=np.float64)
        random = rng.random
        steps = 0
        while num_alive:
            if steps >= limit:
                raise RuntimeError("rollout exceeded step limit; livelocked policy")
            steps += 1
            ready = seq != INF
            # Visibility window: only rank arrival stamps when some lane's
            # ready set overflows the window (sentinel stamps sort last).
            if window < n and (num_ready > window).any():
                order = np.argsort(seq, axis=1, kind="stable")
                rank = np.empty_like(order)
                np.put_along_axis(rank, order, np.arange(n)[None, :], axis=1)
                ready &= rank < window
            # Fit test: with SWAR packing, per-field borrow detection via
            # the guard bits (three (B, N) int ops); otherwise the dense
            # (B, N, R) comparison.
            if packed:
                fits = (
                    (free_packed[:, None] - demands_packed[None, :]) & guard
                ) == guard
            else:
                fits = (demands[None, :, :] <= free[:, None, :]).all(axis=2)
            candidates = ready & fits
            candidates &= alive[:, None]
            # Uniform choice per lane as an argmax over fresh random keys
            # restricted to the candidate set (fixed draw shape per
            # iteration keeps runs seeded and deterministic).
            random(out=keys)
            sel = np.argmax(np.where(candidates, keys, -1.0), axis=1)
            sched = candidates.any(axis=1)
            if sched.any():
                rows = np.nonzero(sched)[0]
                cols = sel[rows]
                if packed:
                    free_packed[rows] -= demands_packed[cols]
                else:
                    free[rows] -= demands[cols]
                finish[rows, cols] = now[rows] + durations[cols]
                seq[rows, cols] = INF
                num_ready[rows] -= 1
                if starts is not None:
                    starts[lanes[rows], cols] = now[rows]
            process = alive & ~sched
            if process.any():
                # Mask non-processing lanes with -1: every real finish time
                # is >= 1, so they release nothing.  A surviving sentinel
                # means some live lane can neither schedule nor process.
                horizon = np.where(process, finish.min(axis=1), -1)
                if int(horizon.max()) == INF:
                    raise EnvironmentStateError("no legal actions")
                if not until_completion:
                    horizon = np.where(process, now + 1, -1)
                released = finish <= horizon[:, None]
                now = np.where(process, horizon, now)
                released_f = released.astype(np.float64)
                if packed:
                    free_packed += (released_f @ demands_packed_f).astype(np.int64)
                else:
                    free += (released_f @ demands_f).astype(np.int64)
                finish[released] = INF
                fincount += released_f.sum(axis=1)
                unmet -= released_f @ adjacency
                newly = pending & (unmet == 0.0)
                newly_rows, newly_cols = np.nonzero(newly)
                if newly_rows.size:
                    # Arrival stamps within one completion follow ascending
                    # index order — the scalar environment's sorted-id order.
                    seq[newly_rows, newly_cols] = event[newly_rows] * n + newly_cols
                    num_ready += newly.sum(axis=1)
                    pending[newly_rows, newly_cols] = False
                event += 1
                lane_done = alive & (fincount == n)
                done_rows = np.nonzero(lane_done)[0]
                if done_rows.size:
                    makespans[lanes[done_rows]] = now[done_rows]
                    alive[done_rows] = False
                    num_alive -= done_rows.size
                    # Compact dead lanes out of the working set once they
                    # are the majority: the per-iteration cost scales with
                    # rows, and late in a run most lanes are done.
                    if num_alive and lanes.size >= 8 and num_alive * 2 <= lanes.size:
                        keep = np.nonzero(alive)[0]
                        lanes = lanes[keep]
                        if packed:
                            free_packed = free_packed[keep]
                        else:
                            free = free[keep]
                        finish = finish[keep]
                        now = now[keep]
                        unmet = unmet[keep]
                        seq = seq[keep]
                        pending = pending[keep]
                        fincount = fincount[keep]
                        num_ready = num_ready[keep]
                        event = event[keep]
                        alive = alive[keep]
                        keys = np.empty((lanes.size, n), dtype=np.float64)
        return makespans, starts


def batch_random_playouts(
    envs: Sequence[SchedulingEnv],
    rng: np.random.Generator,
    limit: int,
) -> List[int]:
    """Convenience wrapper: lockstep-play ``envs`` and return makespans.

    Builds a throwaway :class:`BatchedPlayouts` kernel from the first
    lane's graph and configuration (which all lanes must share).
    """
    if not envs:
        return []
    kernel = BatchedPlayouts(envs[0].graph, envs[0].config)
    makespans, _starts = kernel.run(envs, rng, limit)
    return [int(m) for m in makespans]
