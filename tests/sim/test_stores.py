"""Tests for FIFO stores."""

from repro.sim import Environment, Store


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer(env, store):
            item = yield store.get()
            received.append(item)

        store.put("hello")
        env.process(consumer(env, store))
        env.run()
        assert received == ["hello"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer(env, store):
            item = yield store.get()
            received.append((env.now, item))

        def producer(env, store):
            yield env.timeout(3.0)
            yield store.put("late item")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert received == [(3.0, "late item")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer(env, store):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        for item in (1, 2, 3):
            store.put(item)
        env.process(consumer(env, store))
        env.run()
        assert received == [1, 2, 3]

    def test_len_and_items(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        env.run()
        assert len(store) == 2
        assert store.items == ["a", "b"]

    def test_multiple_consumers_each_get_one(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer(env, store, name):
            item = yield store.get()
            received.append((name, item))

        env.process(consumer(env, store, "x"))
        env.process(consumer(env, store, "y"))
        for item in (1, 2):
            store.put(item)
        env.run()
        assert sorted(received) == [("x", 1), ("y", 2)]

    def test_put_returns_an_already_succeeded_event(self, env):
        store = Store(env)
        event = store.put("x")
        assert event.triggered and event.ok
        assert not event.processed
        env.run()
        assert event.processed

    def test_put_event_fires_before_the_waiting_getter(self):
        # put() schedules its own event before handing the item to a waiting
        # getter, so the producer resumes first at the shared instant.
        env = Environment()
        store = Store(env)
        order = []

        def consumer(env, store):
            item = yield store.get()
            order.append(("consumer", item, env.now))

        def producer(env, store):
            yield env.timeout(2.0)
            yield store.put("item")
            order.append(("producer", None, env.now))

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert order == [("producer", None, 2.0), ("consumer", "item", 2.0)]

    def test_get_from_nonempty_store_takes_the_item_at_once(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        event = store.get()
        assert event.triggered and event.value == "a"
        assert store.items == ["b"]

    def test_items_is_a_snapshot(self, env):
        store = Store(env)
        store.put("a")
        snapshot = store.items
        snapshot.append("not stored")
        assert store.items == ["a"]
        assert len(store) == 1

    def test_name(self, env):
        assert Store(env, name="inbox").name == "inbox"
        assert Store(env).name.startswith("store@")
