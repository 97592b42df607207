"""Unit tests for the resource-time space grid."""

import numpy as np
import pytest

from repro.cluster import ResourceTimeSpace
from repro.errors import CapacityError, PlacementError


@pytest.fixture
def space():
    return ResourceTimeSpace((10, 10), initial_horizon=16)


class TestConstruction:
    def test_initial_geometry(self, space):
        assert space.num_resources == 2
        assert space.horizon == 16
        assert space.makespan() == 0

    def test_invalid_capacities(self):
        with pytest.raises(CapacityError):
            ResourceTimeSpace((0, 10))

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            ResourceTimeSpace((10,), initial_horizon=0)


class TestPlacement:
    def test_place_and_query(self, space):
        space.place((4, 2), start=3, duration=5)
        assert space.usage(0, 3) == 4
        assert space.usage(1, 7) == 2
        assert space.usage(0, 8) == 0
        assert space.usage(0, 2) == 0

    def test_free_complements_usage(self, space):
        space.place((4, 2), 0, 2)
        assert space.free(0, 0) == 6
        assert space.free(1, 1) == 8

    def test_stacking(self, space):
        space.place((4, 4), 0, 4)
        space.place((6, 6), 0, 4)
        assert space.usage(0, 0) == 10
        assert not space.fits_at((1, 1), 0, 1)

    def test_overfull_placement_rejected(self, space):
        space.place((6, 6), 0, 4)
        with pytest.raises(PlacementError):
            space.place((5, 5), 2, 4)

    def test_place_beyond_horizon_grows(self, space):
        space.place((1, 1), 100, 10)
        assert space.horizon >= 110
        assert space.usage(0, 105) == 1

    def test_makespan_tracks_last_occupied(self, space):
        space.place((1, 1), 4, 3)
        assert space.makespan() == 7

    def test_remove_undoes_place(self, space):
        space.place((4, 2), 3, 5)
        space.remove((4, 2), 3, 5)
        assert space.makespan() == 0

    def test_remove_unplaced_rejected(self, space):
        with pytest.raises(PlacementError):
            space.remove((4, 2), 3, 5)

    def test_usage_negative_time_rejected(self, space):
        with pytest.raises(ValueError):
            space.usage(0, -1)


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

    def test_respects_not_before(self, space):
        assert space.latest_start((1, 1), 2, deadline=10, not_before=5) == 8
        space.place((10, 10), 6, 4)
        assert space.latest_start((3, 3), 2, deadline=10, not_before=5) is None
