"""The three HPF distribution methods for one array dimension."""

from enum import Enum
from itertools import repeat

import numpy as np


class Distribution(Enum):
    """How one dimension of the array is mapped onto one dimension of the CP grid."""

    #: the whole dimension goes to a single grid position
    NONE = "n"
    #: contiguous blocks of ceil(extent / grid) indices per grid position
    BLOCK = "b"
    #: indices dealt round-robin across grid positions
    CYCLIC = "c"

    @classmethod
    def from_letter(cls, letter):
        """Parse the single-letter shorthand used in pattern names."""
        for member in cls:
            if member.value == letter:
                return member
        raise ValueError(f"unknown distribution letter {letter!r}")

    def grid_index_scalar(self, index, extent, grid_size):
        """Scalar counterpart of :meth:`grid_index_of` (no ndarray overhead).

        Used on the per-block fast path where a block spans only a handful of
        records and numpy's per-call cost would dominate.
        """
        if self is Distribution.NONE or grid_size <= 1:
            return 0
        if self is Distribution.BLOCK:
            block = -(-extent // grid_size)  # ceil division
            grid_index = index // block
            last = grid_size - 1
            return grid_index if grid_index < last else last
        # CYCLIC
        return index % grid_size

    def grid_index_of(self, indices, extent, grid_size):
        """Vectorised mapping from array indices to grid coordinates.

        *indices* is an integer ndarray of positions along this dimension
        (each in ``[0, extent)``); the result is the grid coordinate (in
        ``[0, grid_size)``) owning each index.
        """
        indices = np.asarray(indices)
        if self is Distribution.NONE or grid_size <= 1:
            return np.zeros_like(indices)
        if self is Distribution.BLOCK:
            block = -(-extent // grid_size)  # ceil division
            return np.minimum(indices // block, grid_size - 1)
        # CYCLIC
        return indices % grid_size

    def owned_count(self, extent, grid_size, grid_index):
        """How many indices of a dimension of size *extent* one grid position owns."""
        if self is Distribution.NONE or grid_size <= 1:
            return extent if grid_index == 0 else 0
        if self is Distribution.BLOCK:
            block = -(-extent // grid_size)
            start = grid_index * block
            if start >= extent:
                return 0
            return min(block, extent - start)
        # CYCLIC
        full, remainder = divmod(extent, grid_size)
        return full + (1 if grid_index < remainder else 0)

    def owned_runs(self, extent, grid_size, grid_index):
        """The ``(start, length)`` index runs one grid position owns, in order."""
        if self is Distribution.NONE or grid_size <= 1:
            return [(0, extent)] if grid_index == 0 else []
        if self is Distribution.BLOCK:
            block = -(-extent // grid_size)
            start = grid_index * block
            if start >= extent:
                return []
            return [(start, min(block, extent - start))]
        # CYCLIC
        return zip(range(grid_index, extent, grid_size), repeat(1))
