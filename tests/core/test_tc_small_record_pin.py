"""Pin: traditional caching at 8-byte records, end to end.

The 77-trial digest matrix runs its single-collective trials at 8192- and
1024-byte records, so it never drives traditional caching through the
per-CP chunk walk at its worst case: one chunk per record.  These digests
were recorded with the chunk walk that scanned every record of the file
through ``owners_of``; the closed-form enumeration of
``MatrixPattern.chunks_for_cp`` must reproduce them bit for bit.  Four CPs
give a 2x2 grid for the 2-D patterns, six CPs a non-square 2x3 one.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.matrix import result_digest
from repro.experiments.runner import run_experiment

_SMALL = dict(method="traditional-caching", n_iops=2, n_disks=2,
              file_size=128 * 1024, layout="random", record_size=8)

#: (pattern, CPs) -> sha256 of the whole TransferResult at seed 1.
PINNED = {
    ("rb", 4): "a1ccde305b987b893f4e67700403411b943c45103593827a6721f37205419f4e",
    ("rc", 4): "255cb929ac55b188fa36354dfa003a5576d554d265028ea9747489fd9c797ab6",
    ("rcb", 4): "022569865a42759ae64dc32f49a2558f6d3acbe6330464478078910fc6b37fec",
    ("rcc", 4): "588e90a2c8dc8cdad5d4f32000206aa4217ce3b0c4feea7eaa571c7ead6881ab",
    ("wcb", 4): "46bf8c50bb901019c1c367f607709cf65230a6cc6c69307abcac41c516fd0a5f",
    ("rcb", 6): "ab9840d8e1b4c87b3a8d9abb0de0faa57d5d15287814f6bcf1f3d9fe4a69064c",
    ("wcc", 6): "ea6fda30da47bdf2de0b8c99c39810a8b1ae0d57e10bd469200c7fb22439451d",
}


@pytest.mark.parametrize("pattern, n_cps", sorted(PINNED))
def test_eight_byte_tc_digest_is_pinned(pattern, n_cps):
    config = ExperimentConfig(pattern=pattern, n_cps=n_cps, **_SMALL)
    result = run_experiment(config, seed=1)
    assert result_digest(result) == PINNED[(pattern, n_cps)]
