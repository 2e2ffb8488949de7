"""Tests for the NONE/BLOCK/CYCLIC dimension distributions."""

import numpy as np
import pytest

from repro.patterns import Distribution


class TestParsing:
    def test_letters(self):
        assert Distribution.from_letter("n") is Distribution.NONE
        assert Distribution.from_letter("b") is Distribution.BLOCK
        assert Distribution.from_letter("c") is Distribution.CYCLIC

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            Distribution.from_letter("x")


class TestGridIndex:
    def test_none_maps_everything_to_zero(self):
        owners = Distribution.NONE.grid_index_of(np.arange(10), extent=10, grid_size=4)
        assert (owners == 0).all()

    def test_block_splits_contiguously(self):
        owners = Distribution.BLOCK.grid_index_of(np.arange(8), extent=8, grid_size=4)
        assert owners.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_block_with_uneven_extent(self):
        owners = Distribution.BLOCK.grid_index_of(np.arange(10), extent=10, grid_size=4)
        # ceil(10/4) = 3 per grid position, last one short.
        assert owners.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]

    def test_cyclic_deals_round_robin(self):
        owners = Distribution.CYCLIC.grid_index_of(np.arange(8), extent=8, grid_size=4)
        assert owners.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_single_grid_position_gets_everything(self):
        for dist in Distribution:
            owners = dist.grid_index_of(np.arange(6), extent=6, grid_size=1)
            assert (owners == 0).all()

    def test_block_never_exceeds_grid(self):
        owners = Distribution.BLOCK.grid_index_of(np.arange(100), extent=100, grid_size=7)
        assert owners.max() == 6


class TestOwnedCount:
    @pytest.mark.parametrize("dist", list(Distribution))
    def test_counts_sum_to_extent(self, dist):
        extent, grid = 37, 5
        total = sum(dist.owned_count(extent, grid, g) for g in range(grid))
        assert total == extent

    def test_none_gives_all_to_position_zero(self):
        assert Distribution.NONE.owned_count(50, 4, 0) == 50
        assert Distribution.NONE.owned_count(50, 4, 1) == 0

    def test_cyclic_spreads_remainder(self):
        assert Distribution.CYCLIC.owned_count(10, 4, 0) == 3
        assert Distribution.CYCLIC.owned_count(10, 4, 3) == 2

    def test_counts_match_grid_index_of(self):
        extent, grid = 29, 4
        for dist in Distribution:
            owners = dist.grid_index_of(np.arange(extent), extent, grid)
            for g in range(grid):
                assert dist.owned_count(extent, grid, g) == int((owners == g).sum())


class TestOwnedRuns:
    def test_none_and_single_position_give_the_whole_extent(self):
        assert list(Distribution.NONE.owned_runs(50, 4, 0)) == [(0, 50)]
        assert list(Distribution.NONE.owned_runs(50, 4, 1)) == []
        for dist in Distribution:
            assert list(dist.owned_runs(9, 1, 0)) == [(0, 9)]

    def test_block_is_one_ceil_sized_run(self):
        # ceil(10/4) = 3: [0,3) [3,6) [6,9) [9,10)
        runs = [list(Distribution.BLOCK.owned_runs(10, 4, g)) for g in range(4)]
        assert runs == [[(0, 3)], [(3, 3)], [(6, 3)], [(9, 1)]]

    def test_block_positions_past_the_extent_own_nothing(self):
        # ceil(5/4) = 2: position 3 would start at 6 > 5.
        assert list(Distribution.BLOCK.owned_runs(5, 4, 3)) == []

    def test_cyclic_is_one_unit_run_per_index(self):
        assert list(Distribution.CYCLIC.owned_runs(10, 4, 1)) == [
            (1, 1), (5, 1), (9, 1)]

    @pytest.mark.parametrize("extent, grid", [(29, 4), (3, 7), (1, 2), (37, 5)])
    def test_runs_match_grid_index_of(self, extent, grid):
        for dist in Distribution:
            owners = dist.grid_index_of(np.arange(extent), extent, grid)
            for g in range(grid):
                indices = [start + offset
                           for start, length in dist.owned_runs(extent, grid, g)
                           for offset in range(length)]
                assert indices == np.flatnonzero(owners == g).tolist()
                assert len(indices) == dist.owned_count(extent, grid, g)
