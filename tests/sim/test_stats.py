"""Tests for counters."""

from repro.sim import Counter


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_add_default_one(self):
        counter = Counter("x")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_add_accumulates_byte_amounts(self):
        counter = Counter("bus.bytes")
        for _ in range(3):
            counter.add(8192)
        assert counter.value == 3 * 8192

    def test_name_defaults_to_empty(self):
        assert Counter().name == ""

    def test_repr_shows_name_and_value(self):
        counter = Counter("disk.reads")
        counter.add(7)
        assert repr(counter) == "<Counter disk.reads=7>"
