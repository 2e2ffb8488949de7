"""Pin: single-piece Memput/Memget run inline, at the spawn path's instants.

``DiskDirectedFS._deliver_to_cps`` / ``_gather_from_cps`` used to spawn a
``Process`` + ``AllOf`` even when a block maps to exactly one CP piece (the
common case for block-aligned patterns).  They now run the single
``_memput`` / ``_memget`` fragment inline — same yields, same instants, one
less process and join event per block.  The elapsed times and counter
digests below were recorded from the spawn-every-piece path; the inline
path must reproduce them bit for bit, and the multi-piece cases (cyclic
8-byte records) pin that the ``Process`` + ``AllOf`` path is unchanged.
"""

import hashlib
import json

import pytest

from repro import DiskDirectedFS, FileSystem, Machine, MachineConfig, make_pattern
from repro.sim import Environment

KILOBYTE = 1024


def run_ddio(pattern_name, *, record_size=8192, layout="random",
             file_size=256 * KILOBYTE, seed=1, config=None):
    config = config or MachineConfig(n_cps=4, n_iops=4, n_disks=4)
    machine = Machine(config, seed=seed)
    filesystem = FileSystem(config, layout_seed=seed)
    striped = filesystem.create_file("pin-file", file_size, layout=layout)
    pattern = make_pattern(pattern_name, file_size, record_size, config.n_cps)
    return DiskDirectedFS(machine, striped).transfer(pattern)


def counters_digest(counters):
    """First 16 hex digits of the sha256 of the sorted-key counter JSON."""
    text = json.dumps(counters, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: (pattern, record size, elapsed, counters digest) as the spawn-every-piece
#: path produced them.  The mix covers single-piece blocks (rb/wb/rc/ra at
#: 8 KB), many-piece blocks (cyclic 8-byte records, which must keep the
#: spawn path) and the broadcast pattern.
CASES = [
    ("rb", 8192, 0.1839352238442036, "792e42d1a83d83b7"),
    ("wb", 8192, 0.16792076009607765, "0b99232ea2a062b5"),
    ("rc", 8192, 0.18393524384420362, "52fd629a09d25a8f"),
    ("rcc", 8, 0.18545328384420362, "05110746e2e42f11"),
    ("wcc", 8, 0.1829132638442036, "99a4235cdaec4f66"),
    ("ra", 8192, 0.18406458384420363, "f7494e84949174c0"),
]


class TestCollapseEquivalence:
    @pytest.mark.parametrize("pattern_name,record_size,elapsed,digest", CASES,
                             ids=[f"{name}-{size}"
                                  for name, size, _, _ in CASES])
    def test_bit_identical_timing_and_counters(self, pattern_name,
                                               record_size, elapsed, digest):
        result = run_ddio(pattern_name, record_size=record_size)
        assert result.elapsed == elapsed  # bit-identical, no approx
        assert counters_digest(result.counters) == digest

    def test_equivalence_holds_on_contiguous_layout_too(self):
        result = run_ddio("rb", layout="contiguous")
        assert result.elapsed == 0.03950823356478366
        assert counters_digest(result.counters) == "7b0b0136cb056f3d"

    def test_single_piece_blocks_spawn_no_transfer_process(self, monkeypatch):
        # Count Memput/Memget processes spawned on the environment: none for
        # block-aligned patterns, where every block is one CP piece, and
        # some for cyclic 8-byte records, where every block is many.
        spawned = []
        original = Environment.process

        def counting_process(env, generator):
            if generator.__name__ in ("_memput", "_memget"):
                spawned.append(generator.__name__)
            return original(env, generator)

        monkeypatch.setattr(Environment, "process", counting_process)
        for pattern_name in ("rb", "wb"):
            assert run_ddio(pattern_name).counters["bytes_moved"] \
                == 256 * KILOBYTE
        assert spawned == []
        run_ddio("rcc", record_size=8)
        run_ddio("wcc", record_size=8)
        assert "_memput" in spawned and "_memget" in spawned
