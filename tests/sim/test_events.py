"""Tests for the event primitives."""

import pytest

from repro.sim import AllOf, Environment, Event, SimulationError, Timeout


class TestEvent:
    def test_new_event_is_untriggered(self, env):
        event = Event(env)
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = Event(env)
        with pytest.raises(SimulationError):
            _ = event.value

    def test_succeed_sets_value(self, env):
        event = Event(env)
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = Event(env)
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = Event(env)
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_records_exception(self, env):
        event = Event(env)
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_processed_after_run(self, env):
        event = Event(env)
        event.succeed("done")
        env.run()
        assert event.processed

    def test_callbacks_receive_event(self, env):
        event = Event(env)
        seen = []
        event.callbacks.append(seen.append)
        event.succeed()
        env.run()
        assert seen == [event]

    def test_fail_after_succeed_raises(self, env):
        event = Event(env).succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("too late"))
        env.run()

    def test_ok_is_none_until_triggered(self, env):
        event = Event(env)
        assert event.ok is None
        event.fail(RuntimeError("boom"))
        assert event.ok is False
        with pytest.raises(RuntimeError):
            env.run()

    def test_repr_tracks_state(self, env):
        event = Event(env)
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)
        env.run()
        assert "processed" in repr(event)


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1.0)

    def test_timeout_fires_at_right_time(self, env):
        times = []

        def waiter(env):
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(waiter(env))
        env.run()
        assert times == [2.5]

    def test_timeout_carries_value(self, env):
        received = []

        def waiter(env):
            value = yield env.timeout(1.0, value="tick")
            received.append(value)

        env.process(waiter(env))
        env.run()
        assert received == ["tick"]

    def test_zero_delay_allowed(self, env):
        timeout = env.timeout(0)
        env.run()
        assert timeout.processed

    def test_timeout_is_triggered_at_creation(self, env):
        timeout = env.timeout(3.0, value="v")
        assert timeout.triggered and timeout.ok
        assert timeout.value == "v"
        assert not timeout.processed


class TestConditions:
    def test_all_of_waits_for_everything(self, env):
        finish_times = []

        def worker(env, delay):
            yield env.timeout(delay)
            return delay

        def coordinator(env):
            procs = [env.process(worker(env, d)) for d in (1.0, 3.0, 2.0)]
            values = yield AllOf(env, procs)
            finish_times.append((env.now, sorted(values.values())))

        env.process(coordinator(env))
        env.run()
        assert finish_times == [(3.0, [1.0, 2.0, 3.0])]

    def test_all_of_empty_list_fires_immediately(self, env):
        fired = []

        def coordinator(env):
            yield AllOf(env, [])
            fired.append(env.now)

        env.process(coordinator(env))
        env.run()
        assert fired == [0.0]

    def test_all_of_mixing_environments_rejected(self, env):
        other = Environment()
        event = Event(other)
        with pytest.raises(SimulationError):
            AllOf(env, [event])

    def test_all_of_with_already_processed_events(self, env):
        early = env.timeout(0.5)
        env.run(until=1.0)
        assert early.processed
        done = []

        def coordinator(env):
            yield AllOf(env, [early, env.timeout(1.0)])
            done.append(env.now)

        env.process(coordinator(env))
        env.run()
        assert done == [2.0]

    def test_all_of_propagates_failure(self, env):
        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("expected failure")

        def coordinator(env):
            with pytest.raises(ValueError):
                yield AllOf(env, [env.process(failing(env)), env.timeout(5.0)])
            return "handled"

        proc = env.process(coordinator(env))
        result = env.run(proc)
        assert result == "handled"

    def test_all_of_with_all_children_already_processed(self, env):
        timeouts = [env.timeout(0.5), env.timeout(1.0)]
        env.run(until=2.0)
        done = []

        def coordinator(env):
            values = yield AllOf(env, timeouts)
            done.append((env.now, len(values)))

        env.process(coordinator(env))
        env.run()
        assert done == [(2.0, 2)]

    def test_all_of_with_already_failed_child_fails_immediately(self, env):
        def failing(env):
            yield env.timeout(0.5)
            raise ValueError("already dead")

        proc = env.process(failing(env))
        with pytest.raises(ValueError):
            env.run()
        caught = []

        def coordinator(env):
            try:
                yield AllOf(env, [proc, env.timeout(10.0)])
            except ValueError as error:
                caught.append(str(error))

        env.process(coordinator(env))
        env.run(until=1.0)
        assert caught == ["already dead"]

    def test_all_of_duplicate_events(self, env):
        shared = env.timeout(1.0, value="twice")
        done = []

        def coordinator(env):
            values = yield AllOf(env, [shared, shared])
            done.append((env.now, values[shared]))

        env.process(coordinator(env))
        env.run()
        assert done == [(1.0, "twice")]

    def test_all_of_many_children_linear_counter(self, env):
        # The pending-counter design: a single decrement per child callback.
        events = [env.timeout(float(i % 7)) for i in range(500)]
        condition = AllOf(env, events)
        assert condition._pending == 500
        done = []

        def coordinator(env):
            values = yield condition
            done.append((env.now, len(values)))

        env.process(coordinator(env))
        env.run()
        assert done == [(6.0, 500)]
        assert condition._pending == 0

    def test_all_of_value_collects_only_successes_in_order(self, env):
        first = env.timeout(1.0, value="a")
        second = env.timeout(2.0, value="b")
        collected = []

        def coordinator(env):
            values = yield AllOf(env, [first, second])
            collected.append(list(values.values()))

        env.process(coordinator(env))
        env.run()
        assert collected == [["a", "b"]]


class TestChain:
    def test_chain_propagates_success_value(self):
        from repro.sim.events import chain

        env = Environment()
        source, target = Event(env), Event(env)
        chain(source, target)
        source.succeed("payload")
        env.run()
        assert target.triggered and target.value == "payload"

    def test_chain_from_already_processed_event(self):
        from repro.sim.events import chain

        env = Environment()
        source = Event(env)
        source.succeed(42)
        env.run()
        target = Event(env)
        chain(source, target)
        assert target.triggered and target.value == 42

    def test_chain_does_not_propagate_failure_as_success(self):
        from repro.sim.events import chain

        env = Environment()
        source, target = Event(env), Event(env)
        chain(source, target)
        source.fail(RuntimeError("disk on fire"))
        with pytest.raises(RuntimeError, match="disk on fire"):
            env.run()
        assert not target.triggered

    def test_chain_leaves_an_already_triggered_target_alone(self):
        from repro.sim.events import chain

        env = Environment()
        source, target = Event(env), Event(env)
        chain(source, target)
        target.succeed("first")
        source.succeed("second")
        env.run()
        assert target.value == "first"
