"""Unit tests for the live cluster simulator state."""

import pytest

from repro.cluster import ClusterState
from repro.errors import CapacityError, EnvironmentStateError


@pytest.fixture
def cluster():
    return ClusterState((10, 10))


class TestConstruction:
    def test_initial_state(self, cluster):
        assert cluster.available == (10, 10)
        assert cluster.now == 0
        assert cluster.is_idle
        assert cluster.num_running == 0

    def test_invalid_capacities(self):
        with pytest.raises(CapacityError):
            ClusterState(())
        with pytest.raises(CapacityError):
            ClusterState((10, 0))


class TestStart:
    def test_occupies_resources(self, cluster):
        cluster.start(1, (4, 3), 5)
        assert cluster.available == (6, 7)
        assert cluster.num_running == 1
        assert not cluster.is_idle

    def test_multiple_tasks(self, cluster):
        cluster.start(1, (4, 3), 5)
        cluster.start(2, (6, 7), 2)
        assert cluster.available == (0, 0)

    def test_over_capacity_rejected(self, cluster):
        cluster.start(1, (8, 8), 5)
        with pytest.raises(CapacityError):
            cluster.start(2, (3, 3), 1)
        # State unchanged by the failed start.
        assert cluster.available == (2, 2)
        assert cluster.num_running == 1

    def test_impossible_demand_rejected(self, cluster):
        with pytest.raises(CapacityError):
            cluster.start(1, (11, 1), 1)

    def test_rejection_messages_are_exact(self):
        cluster = ClusterState((20, 20))
        with pytest.raises(CapacityError) as never:
            cluster.start(3, (25, 1), 1)
        assert str(never.value) == (
            "task 3: demand 25 for resource 0 exceeds capacity 20"
        )
        with pytest.raises(CapacityError) as dims:
            cluster.start(3, (1, 1, 1), 1)
        assert str(dims.value) == "task 3: demand vector has 3 dims, cluster has 2"
        cluster.start(1, (15, 15), 2)
        with pytest.raises(CapacityError) as busy:
            cluster.start(3, (6, 1), 1)
        assert str(busy.value) == (
            "task 3: demands (6, 1) exceed free capacity (5, 5)"
        )

    def test_zero_runtime_rejected(self, cluster):
        with pytest.raises(EnvironmentStateError):
            cluster.start(1, (1, 1), 0)

    def test_can_fit(self, cluster):
        cluster.start(1, (9, 9), 3)
        assert cluster.can_fit((1, 1))
        assert not cluster.can_fit((2, 1))


class TestAdvance:
    def test_releases_on_completion(self, cluster):
        cluster.start(1, (4, 4), 3)
        completed = cluster.advance(3)
        assert completed == [1]
        assert cluster.available == (10, 10)
        assert cluster.now == 3

    def test_partial_advance_keeps_task(self, cluster):
        cluster.start(1, (4, 4), 3)
        assert cluster.advance(2) == []
        assert cluster.available == (6, 6)

    def test_completion_order_deterministic(self, cluster):
        cluster.start(2, (2, 2), 3)
        cluster.start(1, (2, 2), 3)
        completed = cluster.advance(3)
        assert completed == [1, 2]  # ties broken by task id

    def test_staggered_completions(self, cluster):
        cluster.start(1, (2, 2), 2)
        cluster.start(2, (2, 2), 5)
        assert cluster.advance(2) == [1]
        assert cluster.advance(3) == [2]
        assert cluster.now == 5

    def test_non_positive_dt_rejected(self, cluster):
        with pytest.raises(EnvironmentStateError):
            cluster.advance(0)


class TestAdvanceToNextEvent:
    def test_jumps_to_earliest_finish(self, cluster):
        cluster.start(1, (2, 2), 7)
        cluster.start(2, (2, 2), 3)
        now, completed = cluster.advance_to_next_event()
        assert now == 3
        assert completed == [2]

    def test_simultaneous_completions(self, cluster):
        cluster.start(1, (2, 2), 4)
        cluster.start(2, (2, 2), 4)
        now, completed = cluster.advance_to_next_event()
        assert now == 4
        assert completed == [1, 2]

    def test_idle_cluster_raises(self, cluster):
        with pytest.raises(EnvironmentStateError):
            cluster.advance_to_next_event()

    def test_earliest_finish_time(self, cluster):
        cluster.start(1, (2, 2), 9)
        cluster.start(2, (2, 2), 4)
        assert cluster.earliest_finish_time() == 4


class TestQueries:
    def test_running_ids_in_completion_order(self, cluster):
        cluster.start(5, (1, 1), 9)
        cluster.start(3, (1, 1), 2)
        assert cluster.running_ids() == [3, 5]

    def test_utilization(self, cluster):
        cluster.start(1, (5, 2), 3)
        assert cluster.utilization() == (0.5, 0.2)


class TestCloneAndEquality:
    def test_clone_is_independent(self, cluster):
        cluster.start(1, (4, 4), 3)
        copy = cluster.clone()
        copy.advance(3)
        assert cluster.now == 0
        assert cluster.available == (6, 6)
        assert copy.available == (10, 10)

    def test_clone_equal_until_diverged(self, cluster):
        cluster.start(1, (4, 4), 3)
        copy = cluster.clone()
        assert copy == cluster
        copy.advance(1)
        assert copy != cluster

    def test_signature_stable_under_insert_order(self):
        a = ClusterState((10, 10))
        a.start(1, (2, 2), 5)
        a.start(2, (3, 3), 5)
        b = ClusterState((10, 10))
        b.start(2, (3, 3), 5)
        b.start(1, (2, 2), 5)
        assert a.signature() == b.signature()

    def test_occupancy_forgets_ids_and_the_clock(self):
        """Sorted (remaining, demands): the same shapes with other task
        ids, at another time, occupy the coming slots identically."""
        a = ClusterState((10, 10))
        a.start(1, (2, 2), 5)
        a.start(2, (3, 3), 4)
        b = ClusterState((10, 10), now=7)
        b.start(9, (3, 3), 4)
        b.start(4, (2, 2), 5)
        assert a.occupancy() == b.occupancy() == ((4, (3, 3)), (5, (2, 2)))
        assert a.signature() != b.signature()
        a.advance(1)
        assert a.occupancy() == ((3, (3, 3)), (4, (2, 2)))
        assert ClusterState((10, 10)).occupancy() == ()

    def test_hashable(self, cluster):
        assert isinstance(hash(cluster), int)

    def test_repr(self, cluster):
        assert "now=0" in repr(cluster)

    def test_clone_preserves_heap_invariant(self, cluster):
        """Regression: a clone's running list must stay a valid heap.

        ``clone`` shallow-copies the running-heap list and relies on its
        order being preserved (no re-``heapify``); interleaved
        ``advance``/``start`` on the clone afterwards must keep popping
        events in finish-time order.
        """
        cluster.start(1, (2, 2), 7)
        cluster.start(2, (1, 1), 3)
        cluster.start(3, (3, 3), 5)
        copy = cluster.clone()
        assert copy.heap_invariant_ok()

        now, done = copy.advance_to_next_event()
        assert (now, done) == (3, [2])
        copy.start(4, (2, 2), 1)
        assert copy.heap_invariant_ok()

        now, done = copy.advance_to_next_event()
        assert (now, done) == (4, [4])
        copy.start(5, (1, 1), 1)
        assert copy.heap_invariant_ok()

        now, done = copy.advance_to_next_event()
        assert (now, done) == (5, [3, 5])
        now, done = copy.advance_to_next_event()
        assert (now, done) == (7, [1])
        assert copy.is_idle and copy.available == (10, 10)
        # The original never moved.
        assert cluster.now == 0 and len(cluster.running_tasks()) == 3


class TestConservation:
    def test_resources_conserved_over_lifecycle(self, cluster):
        """Sum of available + running demands is invariant."""
        cluster.start(1, (3, 2), 4)
        cluster.start(2, (5, 6), 2)

        def total():
            running = cluster.running_tasks()
            used = [sum(e.demands[r] for e in running) for r in range(2)]
            return tuple(a + u for a, u in zip(cluster.available, used))

        assert total() == (10, 10)
        cluster.advance(2)
        assert total() == (10, 10)
        cluster.advance(2)
        assert total() == (10, 10)
