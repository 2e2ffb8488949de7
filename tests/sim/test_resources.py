"""Tests for capacity-limited resources."""

import pytest

from repro.sim import Environment, Resource


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_when_free(self, env):
        resource = Resource(env, capacity=1)
        request = resource.request()
        assert request.triggered
        assert resource.count == 1

    def test_queueing_when_full(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        assert first.triggered
        assert not second.triggered
        assert resource.queue_length == 1
        resource.release(first)
        assert second.triggered
        assert resource.queue_length == 0

    def test_release_of_unknown_request_raises(self, env):
        resource = Resource(env, capacity=1)
        granted = resource.request()
        other = Resource(env, capacity=1).request()
        with pytest.raises(ValueError):
            resource.release(other)
        resource.release(granted)

    def test_fifo_ordering(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(env, resource, name, hold):
            yield from resource.acquire(hold)
            order.append((name, env.now))

        for index, name in enumerate("abc"):
            env.process(user(env, resource, name, 1.0))
        env.run()
        assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_multi_capacity_allows_parallel_use(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        done = []

        def user(env, resource, name):
            yield from resource.acquire(1.0)
            done.append((name, env.now))

        for name in "abcd":
            env.process(user(env, resource, name))
        env.run()
        # Two at a time: a+b finish at 1.0, c+d at 2.0.
        assert [t for _n, t in done] == [1.0, 1.0, 2.0, 2.0]

    def test_acquire_releases_even_on_zero_hold(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def user(env, resource):
            yield from resource.acquire(0.0)

        env.process(user(env, resource))
        env.run()
        assert resource.count == 0

    def test_request_as_context_manager(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def user(env, resource):
            with resource.request() as request:
                yield request
                yield env.timeout(1.0)

        env.process(user(env, resource))
        env.run()
        assert resource.count == 0


class TestAcquireEvent:
    """The non-generator fast path must mirror acquire() exactly."""

    def test_uncontended_returns_single_event(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        done = []

        def user(env, resource):
            event = resource.acquire_event(2.0)
            assert event is not None
            assert resource.count == 1
            yield event
            done.append(env.now)

        env.process(user(env, resource))
        env.run()
        assert done == [2.0]
        assert resource.count == 0  # released at expiry

    def test_contended_returns_none(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder(env, resource):
            yield from resource.acquire(5.0)

        def prober(env, resource):
            yield env.timeout(1.0)
            assert resource.acquire_event(1.0) is None

        env.process(holder(env, resource))
        env.process(prober(env, resource))
        env.run()

    def test_grants_until_capacity_is_full(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        first = resource.acquire_event(1.0)
        second = resource.acquire_event(2.0)
        assert first is not None and second is not None
        assert resource.acquire_event(1.0) is None
        assert resource.count == 2
        env.run(until=1.0)
        assert resource.count == 1
        assert resource.acquire_event(1.0) is not None
        env.run()
        assert resource.count == 0

    def test_release_happens_before_waiter_resumes(self):
        # A queued waiter must be granted by the fast path's release callback
        # at hold expiry, exactly as the generator path grants it.
        env = Environment()
        resource = Resource(env, capacity=1)
        grants = []

        def fast_user(env, resource):
            yield resource.acquire_event(1.0)
            grants.append(("fast-done", env.now))

        def queued_user(env, resource):
            yield from resource.acquire(1.0)
            grants.append(("queued-done", env.now))

        env.process(fast_user(env, resource))
        env.process(queued_user(env, resource))
        env.run()
        assert grants == [("fast-done", 1.0), ("queued-done", 2.0)]

    def test_matches_generator_path_timings(self):
        def scenario(use_fast_path):
            env = Environment()
            resource = Resource(env, capacity=2)
            finished = []

            def user(env, name, start, hold):
                yield env.timeout(start)
                if use_fast_path:
                    event = resource.acquire_event(hold)
                    if event is None:
                        yield from resource.acquire(hold)
                    else:
                        yield event
                else:
                    yield from resource.acquire(hold)
                finished.append((name, env.now))

            for index, (start, hold) in enumerate(
                    [(0.0, 3.0), (0.5, 1.0), (1.0, 2.0), (1.0, 0.5)]):
                env.process(user(env, index, start, hold))
            env.run()
            return finished

        assert scenario(True) == scenario(False)
