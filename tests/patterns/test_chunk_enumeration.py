"""Closed-form chunk enumeration against the whole-file ownership scan.

``MatrixPattern.chunks_for_cp`` derives each CP's runs from the BLOCK /
CYCLIC arithmetic of the two dimensions.  :func:`reference_chunks` is the
enumeration it replaced: ask ``owners_of`` for the owner of every record of
the file (in fixed-size batches), take the runs of records the CP owns and
merge the runs that meet across a batch boundary.  The two must agree run
for run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.patterns import PATTERN_NAMES, make_pattern
from repro.patterns.pattern import MatrixPattern

#: Records per ``owners_of`` batch in the reference scan.
BATCH_RECORDS = 1 << 16


def _runs_of_true(mask):
    """Start indices and lengths of maximal runs of True in a boolean array."""
    padded = np.concatenate(([False], mask, [False]))
    changes = np.diff(padded.astype(np.int8))
    starts = np.where(changes == 1)[0]
    ends = np.where(changes == -1)[0]
    return starts, ends - starts


def reference_chunks(pattern, cp, batch_records=BATCH_RECORDS):
    """``(byte_offset, byte_length)`` runs of *cp*, by scanning every record."""
    runs = []
    for batch_start in range(0, pattern.n_records, batch_records):
        batch_end = min(batch_start + batch_records, pattern.n_records)
        indices = np.arange(batch_start, batch_end, dtype=np.int64)
        starts, lengths = _runs_of_true(pattern.owners_of(indices) == cp)
        for run_start, run_length in zip(starts.tolist(), lengths.tolist()):
            record_start = batch_start + run_start
            if runs and runs[-1][0] + runs[-1][1] == record_start:
                runs[-1][1] += run_length
            else:
                runs.append([record_start, run_length])
    size = pattern.record_size
    return [(start * size, length * size) for start, length in runs]


PARTITION_NAMES = [name for name in PATTERN_NAMES if name != "ra"]
ALIASES = ["rnn", "rnc", "rbn"]
RECORD_SIZES = [8, 24, 64, 1024, 8192]
CP_COUNTS = [1, 2, 3, 4, 6, 7, 16, 17]


def assert_matches_reference(pattern, batch_records=BATCH_RECORDS):
    for cp in range(pattern.n_cps):
        assert list(pattern.chunks_for_cp(cp)) == \
            reference_chunks(pattern, cp, batch_records), (pattern, cp)


@given(name=st.sampled_from(PARTITION_NAMES + ALIASES),
       record_size=st.sampled_from(RECORD_SIZES),
       n_cps=st.sampled_from(CP_COUNTS),
       n_records=st.integers(min_value=1, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_default_shapes_match_reference(name, record_size, n_cps, n_records):
    pattern = make_pattern(name, n_records * record_size, record_size, n_cps)
    assert_matches_reference(pattern)


@st.composite
def explicit_shapes(draw):
    """1 x n, n x 1 and arbitrary (mostly non-square) matrix shapes."""
    kind = draw(st.sampled_from(["row", "column", "any"]))
    extent = st.integers(min_value=1, max_value=60)
    if kind == "row":
        return 1, draw(extent)
    if kind == "column":
        return draw(extent), 1
    return draw(extent), draw(extent)


@given(name=st.sampled_from(
           [name for name in PARTITION_NAMES + ALIASES if len(name) == 3]),
       record_size=st.sampled_from(RECORD_SIZES),
       n_cps=st.sampled_from(CP_COUNTS),
       dims=explicit_shapes())
@settings(max_examples=300, deadline=None)
def test_explicit_matrix_dims_match_reference(name, record_size, n_cps, dims):
    rows, cols = dims
    pattern = make_pattern(name, rows * cols * record_size, record_size,
                           n_cps, matrix_dims=dims)
    assert_matches_reference(pattern)


@pytest.mark.parametrize("name", ["rc", "rcc", "rbc", "wcb"])
def test_runs_merged_across_reference_batches(name):
    # Small batches put batch boundaries inside runs and between runs that
    # meet; the merged reference must still equal the closed form.
    pattern = make_pattern(name, 35 * 11 * 8, 8, 4, matrix_dims=(35, 11))
    assert_matches_reference(pattern, batch_records=7)


@pytest.mark.parametrize("name", ["rb", "rc", "rbn", "rcb"])
def test_one_megabyte_of_eight_byte_records_matches_reference(name):
    # 131072 records: two reference batches, and for three CPs runs that
    # straddle the batch boundary.
    assert_matches_reference(make_pattern(name, 1 << 20, 8, 3))


@pytest.mark.parametrize("name", ["rbc", "wbc"])
def test_cyclic_columns_merge_across_odd_rows(name):
    # With an odd column count, the last column one CP owns in a row and
    # the first it owns in the next row are adjacent in the file: the CP
    # need not own whole rows for its runs to merge across a row end.
    pattern = make_pattern(name, 6 * 5 * 8, 8, 4, matrix_dims=(6, 5))
    chunks = list(pattern.chunks_for_cp(0))
    assert any(length > 8 for _offset, length in chunks)
    assert_matches_reference(pattern)


def test_idle_cps_enumerate_nothing():
    # 7 CPs over a 2-D pattern: the grid is 1 x 7, and with 3 columns only
    # CPs 0-2 own anything.
    pattern = make_pattern("rbb", 4 * 3 * 8, 8, 7, matrix_dims=(4, 3))
    assert [list(pattern.chunks_for_cp(cp)) for cp in range(3, 7)] == [[]] * 4
    assert_matches_reference(pattern)


def test_cp_out_of_range_raises():
    pattern = make_pattern("rcb", 1 << 16, 8, 4)
    for cp in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            list(pattern.chunks_for_cp(cp))


def test_enumeration_needs_no_ownership_scan(monkeypatch):
    def refuse(self, record_indices):
        raise AssertionError("chunks_for_cp must not scan ownership")

    monkeypatch.setattr(MatrixPattern, "owners_of", refuse)
    pattern = make_pattern("rcb", 1 << 20, 8, 16)
    total = 0
    for cp in range(pattern.n_cps):
        total += sum(length for _offset, length in pattern.chunks_for_cp(cp))
    assert total == 1 << 20
