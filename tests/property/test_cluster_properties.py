"""Property-based tests on the cluster simulator and resource-time space.

Graphene's resource-time space is a step function
(:class:`repro.schedulers.graphene.ResourceProfile`); :class:`DenseGrid`
below is the dense ``(resource, slot)`` grid it replaced, kept here as
the oracle every profile query and placement must agree with.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster import ClusterState
from repro.errors import CapacityError, PlacementError
from repro.schedulers.graphene import ResourceProfile


@st.composite
def task_requests(draw, max_tasks=12, capacity=12):
    count = draw(st.integers(1, max_tasks))
    tasks = []
    for tid in range(count):
        demands = (
            draw(st.integers(0, capacity)),
            draw(st.integers(0, capacity)),
        )
        runtime = draw(st.integers(1, 8))
        tasks.append((tid, demands, runtime))
    return tasks


@settings(max_examples=60, deadline=None)
@given(requests=task_requests(), capacity=st.integers(6, 12))
def test_cluster_conserves_resources(requests, capacity):
    """At any moment available + sum(running demands) == capacities, and
    every admitted task is eventually released in full."""
    cluster = ClusterState((capacity, capacity))
    admitted = []
    for tid, demands, runtime in requests:
        if max(demands) > capacity:
            continue
        if cluster.can_fit(demands):
            cluster.start(tid, demands, runtime)
            admitted.append(tid)
        used = [
            sum(e.demands[r] for e in cluster.running_tasks()) for r in (0, 1)
        ]
        assert tuple(a + u for a, u in zip(cluster.available, used)) == (
            capacity,
            capacity,
        )
    completed = []
    while not cluster.is_idle:
        _, done = cluster.advance_to_next_event()
        completed.extend(done)
    assert sorted(completed) == sorted(admitted)
    assert cluster.available == (capacity, capacity)


@settings(max_examples=60, deadline=None)
@given(requests=task_requests())
def test_cluster_never_oversubscribes(requests):
    cluster = ClusterState((10, 10))
    for tid, demands, runtime in requests:
        try:
            cluster.start(tid, demands, runtime)
        except CapacityError:
            pass
        assert all(a >= 0 for a in cluster.available)


class DenseGrid:
    """Usage per ``(resource, slot)``, probed one window at a time."""

    def __init__(self, capacities, horizon=512):
        self.capacities = capacities
        self.usage = [[0] * horizon for _ in capacities]

    def fits(self, demands, start, duration):
        return start >= 0 and all(
            self.usage[r][t] + demand <= capacity
            for r, (demand, capacity) in enumerate(zip(demands, self.capacities))
            for t in range(start, start + duration)
        )

    def earliest_start(self, demands, duration, not_before):
        start = max(0, not_before)
        while not self.fits(demands, start, duration):
            start += 1
        return start

    def latest_start(self, demands, duration, deadline):
        for start in range(deadline - duration, -1, -1):
            if self.fits(demands, start, duration):
                return start
        return None

    def place(self, demands, start, duration):
        for r, demand in enumerate(demands):
            for t in range(start, start + duration):
                self.usage[r][t] += demand

    def makespan(self):
        slots = range(len(self.usage[0]))
        occupied = [t for t in slots if any(row[t] for row in self.usage)]
        return occupied[-1] + 1 if occupied else 0


@st.composite
def placements(draw, capacity=10):
    count = draw(st.integers(1, 10))
    result = []
    for _ in range(count):
        demands = (draw(st.integers(1, capacity)), draw(st.integers(1, capacity)))
        duration = draw(st.integers(1, 6))
        result.append((demands, duration))
    return result


@settings(max_examples=60, deadline=None)
@given(items=placements())
def test_earliest_start_placements_never_overlap_capacity(items):
    """Packing every rectangle at its earliest feasible start keeps usage
    within capacity at every slot, and earliest_start is minimal: one slot
    earlier always fails."""
    space, grid = ResourceProfile((10, 10)), DenseGrid((10, 10))
    for demands, duration in items:
        start = space.earliest_start(demands, duration)
        assert grid.fits(demands, start, duration)
        if start > 0:
            assert not grid.fits(demands, start - 1, duration)
        space.place(demands, start, duration)
        grid.place(demands, start, duration)
    assert all(used <= 10 for row in grid.usage for used in row)
    assert space.makespan() == grid.makespan()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_profile_matches_dense_grid(data):
    """Every query, every accepted or refused placement and the makespan
    agree with the dense grid, over 1-3 resources of random capacity."""
    capacities = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    profile, grid = ResourceProfile(capacities), DenseGrid(capacities)
    for _ in range(data.draw(st.integers(1, 25))):
        kind = data.draw(st.sampled_from(["earliest", "latest", "place", "pack"]))
        demands = tuple(data.draw(st.integers(0, c)) for c in capacities)
        duration = data.draw(st.integers(1, 8))
        t = data.draw(st.integers(0, 40))
        if kind == "earliest":
            assert profile.earliest_start(demands, duration, t) == (
                grid.earliest_start(demands, duration, t)
            )
        elif kind == "latest":
            assert profile.latest_start(demands, duration, t) == (
                grid.latest_start(demands, duration, t)
            )
        elif kind == "place" and not grid.fits(demands, t, duration):
            with pytest.raises(PlacementError):
                profile.place(demands, t, duration)
        else:
            if kind == "pack":
                t = profile.earliest_start(demands, duration, t)
            profile.place(demands, t, duration)
            grid.place(demands, t, duration)
        assert profile.makespan() == grid.makespan()
