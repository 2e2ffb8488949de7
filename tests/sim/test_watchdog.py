"""Tests for the no-progress watchdog and deadlock diagnosis."""

import pytest

from repro.sim import Environment
from repro.sim.errors import DeadlockError, SimulationError


class TestDeadlockDiagnosis:
    def test_waiting_on_nothing_raises_deadlock_error(self):
        """An intentionally-deadlocked run raises instead of hanging."""
        env = Environment()

        def stuck_consumer(env):
            yield env.event()  # nobody will ever succeed this

        proc = env.process(stuck_consumer(env))
        with pytest.raises(DeadlockError):
            env.run(proc)

    def test_deadlock_error_names_the_stuck_process(self):
        env = Environment()

        def orphaned_waiter(env):
            yield env.event()

        proc = env.process(orphaned_waiter(env))
        with pytest.raises(DeadlockError) as excinfo:
            env.run(proc)
        message = str(excinfo.value)
        assert "orphaned_waiter" in message
        assert "waiting on" in message

    def test_deadlock_error_lists_every_stuck_process(self):
        env = Environment()

        def waiter_a(env):
            yield env.event()

        def waiter_b(env):
            yield env.event()

        env.process(waiter_a(env))
        proc = env.process(waiter_b(env))
        with pytest.raises(DeadlockError) as excinfo:
            env.run(proc)
        message = str(excinfo.value)
        assert "waiter_a" in message and "waiter_b" in message
        assert "2 process(es)" in message

    def test_deadlock_error_is_a_simulation_error(self):
        assert issubclass(DeadlockError, SimulationError)

    def test_mutual_wait_is_diagnosed(self):
        """Two processes each waiting on the other's event: classic deadlock."""
        env = Environment()
        lock_a = env.event()
        lock_b = env.event()

        def philosopher_one(env):
            yield lock_a
            lock_b.succeed()

        def philosopher_two(env):
            yield lock_b
            lock_a.succeed()

        env.process(philosopher_one(env))
        proc = env.process(philosopher_two(env))
        with pytest.raises(DeadlockError) as excinfo:
            env.run(proc)
        assert "philosopher_one" in str(excinfo.value)
        assert "philosopher_two" in str(excinfo.value)


class TestWatchdog:
    def test_normal_run_unaffected_by_watchdog(self):
        """An armed watchdog gives the same answer as an unwatched run."""
        def worker(env):
            total = 0.0
            for _ in range(10):
                yield env.timeout(0.5)
                total += env.now
            return total

        plain = Environment()
        expected = plain.run(plain.process(worker(plain)))
        watched = Environment()
        got = watched.run(watched.process(worker(watched)), watchdog=30.0)
        assert got == expected
        assert watched.now == plain.now

    def test_watchdog_until_time_matches_unwatched_run(self):
        def ticker(env):
            while True:
                yield env.timeout(1.0)

        plain = Environment()
        plain.process(ticker(plain))
        plain.run(until=5.5)
        watched = Environment()
        watched.process(ticker(watched))
        watched.run(until=5.5, watchdog=30.0)
        assert watched.now == plain.now == 5.5

    def test_watchdog_catches_zero_time_livelock(self):
        """Events firing forever at one instant trip the watchdog."""
        env = Environment()

        def spinner(env):
            while True:
                # event_at(now) reschedules at the same instant: simulated
                # time never advances but the calendar never empties.
                yield env.event_at(env.now)

        env.process(spinner(env))
        with pytest.raises(DeadlockError) as excinfo:
            env.run(watchdog=0.05)
        message = str(excinfo.value)
        assert "watchdog expired" in message
        assert "spinner" in message

    def test_watchdog_empty_calendar_below_sentinel_diagnosed(self):
        env = Environment()

        def silent_partner(env):
            yield env.event()

        proc = env.process(silent_partner(env))
        with pytest.raises(DeadlockError) as excinfo:
            env.run(proc, watchdog=10.0)
        assert "silent_partner" in str(excinfo.value)

    def test_watchdog_budget_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.run(watchdog=0.0)
        with pytest.raises(ValueError):
            env.run(watchdog=-1.0)

    def test_watchdog_until_in_past_rejected(self):
        env = Environment()
        env.process(_tick(env))
        env.run(until=2.0)
        with pytest.raises(ValueError):
            env.run(until=1.0, watchdog=5.0)

    def test_watchdog_run_to_exhaustion_returns_none(self):
        env = Environment()
        env.process(_tick(env))
        assert env.run(watchdog=10.0) is None
        assert env.now == 3.0


def _tick(env):
    for _ in range(3):
        yield env.timeout(1.0)
