"""Tests for generator-based processes."""

import pytest

from repro.sim import Process


class TestProcessBasics:
    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            Process(env, lambda: None)

    def test_process_returns_generator_value(self, env):
        def worker(env):
            yield env.timeout(1.0)
            return 99

        proc = env.process(worker(env))
        assert env.run(proc) == 99

    def test_process_is_alive_until_done(self, env):
        def worker(env):
            yield env.timeout(5.0)

        proc = env.process(worker(env))
        env.run(until=1.0)
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_processes_can_wait_for_each_other(self, env):
        log = []

        def child(env):
            yield env.timeout(2.0)
            log.append(("child", env.now))
            return "child-result"

        def parent(env):
            value = yield env.process(child(env))
            log.append(("parent", env.now, value))

        env.process(parent(env))
        env.run()
        assert log == [("child", 2.0), ("parent", 2.0, "child-result")]

    def test_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as error:
                return f"caught: {error}"

        proc = env.process(parent(env))
        assert env.run(proc) == "caught: child failed"

    def test_unwaited_failure_surfaces_at_run(self, env):
        def worker(env):
            yield env.timeout(1.0)
            raise RuntimeError("nobody is watching")

        env.process(worker(env))
        with pytest.raises(RuntimeError):
            env.run()

    def test_yielding_non_event_is_an_error(self, env):
        def worker(env):
            yield 42

        env.process(worker(env))
        with pytest.raises(TypeError):
            env.run()

    @pytest.mark.parametrize("make_target", [
        lambda env: None,
        lambda env: 42,
        # The usual slip: ``yield`` where ``yield from`` was meant.
        lambda env: (yield env.timeout(1.0)),
    ], ids=["none", "int", "generator"])
    def test_non_event_error_names_the_yielded_value(self, env, make_target):
        def worker(env):
            target = make_target(env)
            yield target

        proc = env.process(worker(env))
        with pytest.raises(TypeError, match="which is not an Event"):
            env.run()
        assert not proc.is_alive

    def test_non_event_error_can_be_caught_and_process_continues(self, env):
        def worker(env):
            try:
                yield 42
            except TypeError as error:
                caught = str(error)
            yield env.timeout(1.0)
            return caught

        proc = env.process(worker(env))
        assert "not an Event" in env.run(proc)
        assert env.now == 1.0
        assert not proc.is_alive

    def test_uncaught_non_event_error_fails_the_process(self, env):
        def worker(env):
            yield "not an event"

        def waiter(env, proc):
            try:
                yield proc
            except TypeError as error:
                return f"caught: {error}"

        proc = env.process(worker(env))
        outcome = env.process(waiter(env, proc))
        assert env.run(outcome).startswith("caught: process 'worker' yielded")
        assert not proc.is_alive
        assert not proc.ok

    def test_name_reflects_generator(self, env):
        def my_worker(env):
            yield env.timeout(1.0)

        proc = env.process(my_worker(env))
        assert proc.name == "my_worker"
        env.run()

    def test_immediate_return_process(self, env):
        def worker(env):
            return "instant"
            yield  # pragma: no cover

        proc = env.process(worker(env))
        assert env.run(proc) == "instant"

    def test_yield_already_processed_event(self, env):
        early = env.timeout(1.0)
        env.run(until=2.0)

        def worker(env):
            value = yield early
            return (env.now, value)

        proc = env.process(worker(env))
        assert env.run(proc) == (2.0, None)

    def test_yield_already_failed_event_raises_in_the_process(self, env):
        failed = env.event()
        failed.fail(RuntimeError("early failure"))
        failed._defused = True
        env.run()

        def worker(env):
            try:
                yield failed
            except RuntimeError as error:
                return (env.now, str(error))

        proc = env.process(worker(env))
        assert env.run(proc) == (0.0, "early failure")

    def test_processes_start_in_creation_order(self, env):
        started = []

        def worker(env, name):
            started.append(name)
            yield env.timeout(0)

        for name in ("a", "b", "c"):
            env.process(worker(env, name))
        env.run()
        assert started == ["a", "b", "c"]

    def test_child_started_by_a_process_runs_at_the_same_instant(self, env):
        def child(env):
            yield env.timeout(0)
            return env.now

        def parent(env):
            yield env.timeout(2.0)
            return (yield env.process(child(env)))

        assert env.run(env.process(parent(env))) == 2.0

    def test_repr_reports_running_then_finished(self, env):
        def worker(env):
            yield env.timeout(1.0)

        proc = env.process(worker(env))
        assert repr(proc) == "<Process worker running>"
        env.run()
        assert repr(proc) == "<Process worker finished>"

    def test_active_process_restored_when_base_exception_escapes(self, env):
        def interrupted(env):
            yield env.timeout(1.0)
            raise KeyboardInterrupt

        env.process(interrupted(env))
        with pytest.raises(KeyboardInterrupt):
            env.run()
        assert env.active_process is None
