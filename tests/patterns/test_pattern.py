"""Tests for access patterns: Figure 2 semantics, chunks and pieces."""

import numpy as np
import pytest

from repro.patterns import AllPattern, make_pattern

BLOCK = 8192


class TestFigure2Examples:
    """The worked examples of Figure 2: an 8x8 matrix / 1x8 vector on 4 CPs."""

    FILE = 64 * 8      # 64 records of 8 bytes
    RECORD = 8
    CPS = 4

    def chunk_size(self, name, matrix_dims=None):
        pattern = make_pattern(name, self.FILE, self.RECORD, self.CPS,
                               matrix_dims=matrix_dims)
        first_chunk = next(iter(pattern.chunks_for_cp(0)))
        return first_chunk[1] // self.RECORD

    def test_1d_chunk_sizes(self):
        # rn: the whole vector lands on one CP in a single chunk.
        assert self.chunk_size("rn") == self.FILE // self.RECORD
        # For the figure's 1x8 vector over 4 CPs: rb chunks of 2, rc chunks of 1.
        assert make_pattern("rb", 8 * 8, 8, 4).chunk_count_for_cp(0) == 1
        assert next(iter(make_pattern("rb", 8 * 8, 8, 4).chunks_for_cp(0)))[1] == 16
        assert next(iter(make_pattern("rc", 8 * 8, 8, 4).chunks_for_cp(0)))[1] == 8

    @pytest.mark.parametrize("name,expected_cs", [
        ("rnb", 2), ("rbb", 4), ("rcb", 4), ("rbc", 1), ("rcc", 1), ("rcn", 8),
    ])
    def test_2d_chunk_sizes(self, name, expected_cs):
        assert self.chunk_size(name, matrix_dims=(8, 8)) == expected_cs

    @pytest.mark.parametrize("name,grid", [
        ("rnb", (1, 4)), ("rbb", (2, 2)), ("rcb", (2, 2)),
        ("rbc", (2, 2)), ("rcc", (2, 2)), ("rcn", (4, 1)),
    ])
    def test_cp_grids(self, name, grid):
        pattern = make_pattern(name, self.FILE, self.RECORD, self.CPS,
                               matrix_dims=(8, 8))
        assert (pattern.grid_rows, pattern.grid_cols) == grid

    def test_every_cp_gets_equal_share(self):
        for name in ("rb", "rc", "rnb", "rbb", "rcb", "rbc", "rcc", "rcn"):
            pattern = make_pattern(name, self.FILE, self.RECORD, self.CPS,
                                   matrix_dims=(8, 8))
            shares = {pattern.bytes_for_cp(cp) for cp in range(self.CPS)}
            assert shares == {self.FILE // self.CPS}

    def test_rn_gives_everything_to_cp0(self):
        pattern = make_pattern("rn", self.FILE, self.RECORD, self.CPS)
        assert pattern.bytes_for_cp(0) == self.FILE
        assert pattern.bytes_for_cp(1) == 0
        assert pattern.participating_cps() == [0]


class TestAllPattern:
    def test_every_cp_reads_whole_file(self):
        pattern = make_pattern("ra", 16 * BLOCK, BLOCK, 4)
        assert isinstance(pattern, AllPattern)
        for cp in range(4):
            assert pattern.bytes_for_cp(cp) == 16 * BLOCK
            assert list(pattern.chunks_for_cp(cp)) == [(0, 16 * BLOCK)]
        assert pattern.total_transfer_bytes() == 4 * 16 * BLOCK

    def test_pieces_give_full_block_to_every_cp(self):
        pattern = make_pattern("ra", 16 * BLOCK, BLOCK, 4)
        pieces = pattern.pieces_in_block(3, BLOCK)
        assert len(pieces) == 4
        assert all(piece.n_bytes == BLOCK and piece.n_pieces == 1 for piece in pieces)

    def test_owners_undefined(self):
        pattern = make_pattern("ra", 16 * BLOCK, BLOCK, 4)
        with pytest.raises(ValueError):
            pattern.owners_of(np.arange(4))

    def test_write_all_rejected(self):
        with pytest.raises(ValueError):
            make_pattern("wa", 16 * BLOCK, BLOCK, 4)


class TestChunks:
    def test_chunks_are_sorted_and_disjoint(self):
        pattern = make_pattern("rcb", 2 ** 18, 8, 16)
        for cp in (0, 5, 15):
            last_end = -1
            for offset, length in pattern.chunks_for_cp(cp):
                assert offset > last_end
                assert length > 0
                last_end = offset + length - 1

    def test_chunks_cover_exactly_the_cps_bytes(self):
        pattern = make_pattern("rbc", 2 ** 18, 8, 16)
        for cp in range(16):
            total = sum(length for _offset, length in pattern.chunks_for_cp(cp))
            assert total == pattern.bytes_for_cp(cp)

    def test_chunks_merge_across_batches(self):
        # rb gives each CP one single huge contiguous chunk even when the
        # record count exceeds the internal batching granularity.
        pattern = make_pattern("rb", 2 ** 20, 8, 16)
        chunks = list(pattern.chunks_for_cp(3))
        assert len(chunks) == 1
        assert chunks[0][1] == 2 ** 20 // 16

    def test_write_patterns_mirror_read_patterns(self):
        read = make_pattern("rcb", 2 ** 16, 8, 16)
        write = make_pattern("wcb", 2 ** 16, 8, 16)
        assert read.is_read and write.is_write
        for cp in (0, 7):
            assert list(read.chunks_for_cp(cp)) == list(write.chunks_for_cp(cp))


class TestPieces:
    @pytest.mark.parametrize("record_size", [8, 1024, 8192])
    def test_pieces_partition_each_block(self, record_size):
        file_size = 64 * BLOCK
        pattern = make_pattern("rcc", file_size, record_size, 16)
        for block in (0, 7, 63):
            pieces = pattern.pieces_in_block(block, BLOCK)
            assert sum(piece.n_bytes for piece in pieces) == BLOCK
            assert all(piece.n_pieces >= 1 for piece in pieces)

    def test_block_beyond_file_is_empty(self):
        pattern = make_pattern("rb", 4 * BLOCK, BLOCK, 4)
        assert pattern.pieces_in_block(100, BLOCK) == []

    def test_cyclic_small_records_have_many_pieces(self):
        pattern = make_pattern("rc", 2 ** 16, 8, 16)
        pieces = pattern.pieces_in_block(0, BLOCK)
        # 1024 records in a block, dealt over 16 CPs -> 64 single-record pieces each.
        assert len(pieces) == 16
        assert all(piece.n_pieces == 64 for piece in pieces)
        assert all(piece.n_bytes == 512 for piece in pieces)

    def test_block_records_have_single_piece(self):
        pattern = make_pattern("rb", 2 ** 16, 8, 4)
        pieces = pattern.pieces_in_block(0, BLOCK)
        assert len(pieces) == 1
        assert pieces[0].n_pieces == 1
        assert pieces[0].n_bytes == BLOCK

    @pytest.mark.parametrize("name, record_size", [
        ("rb", 8), ("rcc", 8), ("rb", 8192), ("ra", 8)])
    def test_negative_block_index_is_rejected(self, name, record_size):
        pattern = make_pattern(name, 2 ** 16, record_size, 4)
        with pytest.raises(ValueError, match="block_index"):
            pattern.pieces_in_block(-1, BLOCK)

    @pytest.mark.parametrize("name", ["rb", "rcc", "ra"])
    @pytest.mark.parametrize("block_size", [0, -BLOCK])
    def test_non_positive_block_size_is_rejected(self, name, block_size):
        pattern = make_pattern(name, 2 ** 16, 8, 4)
        with pytest.raises(ValueError, match="block_size"):
            pattern.pieces_in_block(0, block_size)

    def test_consistency_between_pieces_and_owners(self):
        pattern = make_pattern("rcb", 2 ** 17, 8, 16)
        block = 5
        records = np.arange(block * 1024, (block + 1) * 1024)
        owners = pattern.owners_of(records)
        pieces = {piece.cp: piece for piece in pattern.pieces_in_block(block, BLOCK)}
        for cp in range(16):
            expected_bytes = int((owners == cp).sum()) * 8
            if expected_bytes:
                assert pieces[cp].n_bytes == expected_bytes
            else:
                assert cp not in pieces


class TestValidation:
    def test_bad_mode_letter(self):
        with pytest.raises(ValueError):
            make_pattern("xb", BLOCK, 8, 4)

    def test_too_many_letters(self):
        with pytest.raises(ValueError):
            make_pattern("rbbb", BLOCK, 8, 4)

    def test_record_size_must_divide_file(self):
        with pytest.raises(ValueError):
            make_pattern("rb", 1000, 8192, 4)

    def test_describe_mentions_name(self):
        pattern = make_pattern("rbb", 2 ** 16, 8, 16)
        assert "rbb" in pattern.describe()
        assert "rbb" in repr(pattern)
