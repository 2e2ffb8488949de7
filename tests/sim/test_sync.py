"""Tests for barriers."""

import pytest

from repro.sim import Barrier, Environment


class TestBarrier:
    def test_requires_at_least_one_party(self, env):
        with pytest.raises(ValueError):
            Barrier(env, parties=0)

    def test_all_parties_released_together(self):
        env = Environment()
        barrier = Barrier(env, parties=3)
        released = []

        def participant(env, barrier, delay, name):
            yield env.timeout(delay)
            yield barrier.wait()
            released.append((name, env.now))

        env.process(participant(env, barrier, 1.0, "a"))
        env.process(participant(env, barrier, 5.0, "b"))
        env.process(participant(env, barrier, 3.0, "c"))
        env.run()
        assert all(time == 5.0 for _name, time in released)
        assert len(released) == 3

    def test_barrier_is_reusable(self):
        env = Environment()
        barrier = Barrier(env, parties=2)
        generations = []

        def participant(env, barrier):
            for _ in range(3):
                generation = yield barrier.wait()
                generations.append(generation)
                yield env.timeout(1.0)

        env.process(participant(env, barrier))
        env.process(participant(env, barrier))
        env.run()
        assert sorted(generations) == [0, 0, 1, 1, 2, 2]

    def test_single_party_barrier_never_blocks(self):
        env = Environment()
        barrier = Barrier(env, parties=1)
        log = []

        def participant(env, barrier):
            yield barrier.wait()
            log.append(env.now)

        env.process(participant(env, barrier))
        env.run()
        assert log == [0.0]

    def test_n_waiting(self, env):
        barrier = Barrier(env, parties=3)
        barrier.wait()
        barrier.wait()
        assert barrier.n_waiting == 2
        barrier.wait()
        assert barrier.n_waiting == 0
        env.run()

    def test_generation_counts_completed_rounds(self, env):
        barrier = Barrier(env, parties=2)
        assert barrier.generation == 0
        barrier.wait()
        assert barrier.generation == 0
        barrier.wait()
        assert barrier.generation == 1
        env.run()

    def test_waiters_resume_in_arrival_order(self):
        env = Environment()
        barrier = Barrier(env, parties=3)
        released = []

        def participant(env, barrier, delay, name):
            yield env.timeout(delay)
            yield barrier.wait()
            released.append(name)

        env.process(participant(env, barrier, 2.0, "second"))
        env.process(participant(env, barrier, 3.0, "last"))
        env.process(participant(env, barrier, 1.0, "first"))
        env.run()
        assert released == ["first", "second", "last"]

    def test_name(self, env):
        assert Barrier(env, parties=2, name="cps").name == "cps"
        assert Barrier(env, parties=2).name.startswith("barrier@")
