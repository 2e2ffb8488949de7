"""Tests for the event loop / environment."""

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.errors import DeadlockError

#: Every run mode goes through the one run loop; each mode's test runs with
#: the watchdog off and armed to pin that both settings behave alike.
WATCHDOGS = pytest.mark.parametrize("watchdog", [None, 30.0],
                                    ids=["unwatched", "watched"])


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    @WATCHDOGS
    def test_run_until_number_advances_clock(self, watchdog):
        env = Environment()
        env.run(until=10.0, watchdog=watchdog)
        assert env.now == 10.0

    @WATCHDOGS
    def test_run_until_past_time_rejected(self, watchdog):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0, watchdog=watchdog)

    def test_events_processed_in_time_order(self):
        env = Environment()
        order = []

        def worker(env, delay, name):
            yield env.timeout(delay)
            order.append(name)

        env.process(worker(env, 3.0, "late"))
        env.process(worker(env, 1.0, "early"))
        env.process(worker(env, 2.0, "middle"))
        env.run()
        assert order == ["early", "middle", "late"]

    def test_ties_processed_in_schedule_order(self):
        env = Environment()
        order = []

        def worker(env, name):
            yield env.timeout(1.0)
            order.append(name)

        for name in "abc":
            env.process(worker(env, name))
        env.run()
        assert order == ["a", "b", "c"]


class TestRun:
    @WATCHDOGS
    def test_run_to_exhaustion(self, watchdog):
        env = Environment()
        ticks = []

        def ticker(env):
            for _ in range(5):
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(ticker(env))
        assert env.run(watchdog=watchdog) is None
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert env.now == 5.0  # the clock stays at the last event

    @WATCHDOGS
    def test_run_until_event_returns_value(self, watchdog):
        env = Environment()

        def worker(env):
            yield env.timeout(2.0)
            return "the answer"

        proc = env.process(worker(env))
        assert env.run(proc, watchdog=watchdog) == "the answer"

    @WATCHDOGS
    def test_run_until_event_deadlock_detected(self, watchdog):
        env = Environment()
        never = env.event()
        with pytest.raises(SimulationError):
            env.run(never, watchdog=watchdog)

    @WATCHDOGS
    def test_run_until_event_that_failed_raises(self, watchdog):
        env = Environment()

        def worker(env):
            yield env.timeout(1.0)
            raise RuntimeError("worker died")

        proc = env.process(worker(env))
        with pytest.raises(RuntimeError, match="worker died"):
            env.run(proc, watchdog=watchdog)

    @WATCHDOGS
    def test_run_until_event_leaves_later_events_pending(self, watchdog):
        env = Environment()
        first = env.timeout(1.0, value="first")
        later = env.timeout(2.0)
        assert env.run(first, watchdog=watchdog) == "first"
        assert env.now == 1.0
        assert not later.processed

    @WATCHDOGS
    def test_run_until_time_leaves_pending_events(self, watchdog):
        env = Environment()
        fired = []

        def worker(env):
            yield env.timeout(10.0)
            fired.append(env.now)

        env.process(worker(env))
        env.run(until=5.0, watchdog=watchdog)
        assert fired == []
        env.run(watchdog=watchdog)
        assert fired == [10.0]

    @WATCHDOGS
    def test_run_until_time_processes_events_at_the_stop_time(self, watchdog):
        env = Environment()
        at_stop = env.timeout(5.0)
        after = env.timeout(5.5)
        env.run(until=5.0, watchdog=watchdog)
        assert at_stop.processed and not after.processed
        assert env.now == 5.0

    @WATCHDOGS
    def test_unhandled_event_failure_surfaces(self, watchdog):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("nobody caught me"))
        with pytest.raises(RuntimeError, match="nobody caught me"):
            env.run(watchdog=watchdog)

    @WATCHDOGS
    def test_runs_across_many_watchdog_strides(self, watchdog, monkeypatch):
        monkeypatch.setattr(Environment, "_WATCHDOG_STRIDE", 3)
        env = Environment()

        def ticker(env):
            for _ in range(20):
                yield env.timeout(0.5)
            return env.now

        assert env.run(env.process(ticker(env)), watchdog=watchdog) == 10.0

    @WATCHDOGS
    def test_run_until_time_drains_followups_at_the_stop_time(self, watchdog):
        # Events that the last event at the stop time schedules for that same
        # instant are still processed before the run returns.
        env = Environment()
        followup = env.event()
        env.timeout(5.0).callbacks.append(lambda _event: followup.succeed())
        env.run(until=5.0, watchdog=watchdog)
        assert followup.processed
        assert env.now == 5.0

    @WATCHDOGS
    def test_run_until_now_is_allowed(self, watchdog):
        env = Environment(initial_time=5.0)
        due = env.timeout(0.0)
        later = env.timeout(1.0)
        assert env.run(until=5.0, watchdog=watchdog) is None
        assert due.processed and not later.processed
        assert env.now == 5.0

    @WATCHDOGS
    def test_run_until_already_processed_event_returns_at_once(self, watchdog):
        env = Environment()
        done = env.timeout(1.0, value="done")
        later = env.timeout(2.0)
        env.run(until=1.5)
        assert env.run(done, watchdog=watchdog) == "done"
        assert env.now == 1.5
        assert not later.processed

    @WATCHDOGS
    def test_deadlock_message_is_the_same_in_both_modes(self, watchdog):
        env = Environment()

        def stuck(env):
            yield env.event()

        proc = env.process(stuck(env))
        with pytest.raises(DeadlockError) as caught:
            env.run(proc, watchdog=watchdog)
        message = str(caught.value)
        assert message.startswith(
            "simulation ran out of events before the awaited event fired")
        assert "stuck: waiting on <Event pending" in message

    def test_step_advances_clock_to_each_event(self):
        env = Environment()
        env.timeout(3.0)
        env.timeout(1.0)
        env.step()
        assert env.now == 1.0
        env.step()
        assert env.now == 3.0
        with pytest.raises(SimulationError):
            env.step()

    def test_step_on_empty_queue_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()


class TestHelpers:
    def test_all_of_helper(self):
        env = Environment()
        done = []

        def coordinator(env):
            yield env.all_of([env.timeout(1.0), env.timeout(2.0)])
            done.append(env.now)

        env.process(coordinator(env))
        env.run()
        assert done == [2.0]

    def test_active_process_visible_inside_process(self):
        env = Environment()
        seen = []

        def worker(env):
            seen.append(env.active_process)
            yield env.timeout(1.0)

        proc = env.process(worker(env))
        env.run()
        assert seen == [proc]
        assert env.active_process is None
