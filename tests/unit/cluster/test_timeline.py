"""Unit tests for the resource-time space Graphene packs into.

The space is :class:`repro.schedulers.graphene.ResourceProfile`, a step
function of per-resource usage over time; it is held to a dense
``(resource, slot)`` grid in ``tests/property/test_cluster_properties.py``.
"""

import pytest

from repro.errors import CapacityError, PlacementError
from repro.schedulers.graphene import ResourceProfile


@pytest.fixture
def space():
    return ResourceProfile((10, 10))


class TestConstruction:
    def test_initial_geometry(self, space):
        """Empty from time 0 onward: nothing occupied, any window fits."""
        assert space.makespan() == 0
        assert space.latest_start((10, 10), 5, deadline=5) == 0
        assert space.earliest_start((10, 10), 1000) == 0

    def test_invalid_capacities(self):
        with pytest.raises(CapacityError):
            ResourceProfile((0, 10))


class TestPlacement:
    def test_place_and_query(self, space):
        space.place((4, 2), start=3, duration=5)
        # (7, 1) fits before and after [3, 8) but not during it.
        assert space.earliest_start((7, 1), 3) == 0
        assert space.earliest_start((7, 1), 4) == 8
        assert space.earliest_start((6, 8), 1, not_before=3) == 3
        assert space.latest_start((7, 1), 1, deadline=8) == 2

    def test_free_complements_usage(self, space):
        """What is left at a slot is capacity minus what was placed there."""
        space.place((4, 2), 0, 2)
        assert space.earliest_start((6, 8), 1) == 0
        assert space.earliest_start((7, 1), 1) == 2
        assert space.earliest_start((1, 9), 1) == 2

    def test_stacking(self, space):
        space.place((4, 4), 0, 4)
        space.place((6, 6), 0, 4)
        assert space.earliest_start((1, 1), 1) == 4
        with pytest.raises(PlacementError):
            space.place((1, 1), 3, 1)

    def test_overfull_placement_rejected(self, space):
        space.place((6, 6), 0, 4)
        with pytest.raises(PlacementError):
            space.place((5, 5), 2, 4)

    def test_place_beyond_horizon_grows(self, space):
        """Nothing is sized in advance: a rectangle far past everything
        placed so far is placed, and the space ends with it."""
        space.place((1, 1), 100, 10)
        assert space.makespan() == 110
        assert space.earliest_start((10, 10), 1, not_before=100) == 110
        assert space.earliest_start((9, 9), 10, not_before=100) == 100

    def test_negative_start_and_zero_duration_rejected(self, space):
        with pytest.raises(PlacementError):
            space.place((1, 1), -1, 2)
        with pytest.raises(PlacementError):
            space.place((1, 1), 0, 0)

    def test_makespan_tracks_last_occupied(self, space):
        space.place((1, 1), 4, 3)
        assert space.makespan() == 7


class TestEarliestStart:
    def test_empty_space_starts_at_zero(self, space):
        assert space.earliest_start((5, 5), 4) == 0

    def test_respects_not_before(self, space):
        assert space.earliest_start((5, 5), 4, not_before=7) == 7

    def test_skips_blocked_region(self, space):
        space.place((10, 10), 0, 6)
        assert space.earliest_start((1, 1), 3) == 6

    def test_finds_gap(self, space):
        space.place((10, 10), 0, 2)
        space.place((10, 10), 5, 2)
        assert space.earliest_start((3, 3), 3) == 2

    def test_partial_overlap_moves_past_block(self, space):
        space.place((8, 8), 2, 4)
        # Demands (5, 5) cannot overlap [2, 6); duration 3 from 0 overlaps.
        assert space.earliest_start((5, 5), 3) == 6

    def test_impossible_demand_rejected(self, space):
        with pytest.raises(CapacityError):
            space.earliest_start((11, 1), 1)

    def test_zero_duration_rejected(self, space):
        with pytest.raises(PlacementError):
            space.earliest_start((1, 1), 0)


class TestLatestStart:
    def test_empty_space_packs_at_deadline(self, space):
        assert space.latest_start((5, 5), 4, deadline=12) == 8

    def test_respects_blocks(self, space):
        space.place((10, 10), 8, 4)
        assert space.latest_start((3, 3), 4, deadline=12) == 4

    def test_none_when_no_room(self, space):
        space.place((10, 10), 0, 12)
        assert space.latest_start((3, 3), 4, deadline=12) is None
