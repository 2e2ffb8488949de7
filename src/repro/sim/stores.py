"""FIFO stores for passing items between processes."""

from collections import deque

from repro.sim.events import Event


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; succeeds with the retrieved item."""

    __slots__ = ()


class Store:
    """An unbounded FIFO queue of items.

    ``put(item)`` stores the item at once and returns an already-succeeded
    event; ``get()`` returns an event that fires with the oldest item once
    one is available.
    """

    def __init__(self, env, name=None):
        self.env = env
        self.name = name or f"store@{id(self):#x}"
        self._items = deque()
        self._getters = deque()

    # -- introspection ---------------------------------------------------------
    @property
    def items(self):
        """A snapshot (copy) of the currently stored items, oldest first."""
        return list(self._items)

    def __len__(self):
        return len(self._items)

    # -- core API ---------------------------------------------------------------
    def put(self, item):
        """Add *item*; returns an event that has already succeeded."""
        event = Event(self.env)
        self._items.append(item)
        event.succeed()
        self._serve_getters()
        return event

    def get(self):
        """Remove the oldest item; returns an event carrying the item."""
        event = StoreGet(self.env)
        self._getters.append(event)
        self._serve_getters()
        return event

    # -- internals ----------------------------------------------------------------
    def _serve_getters(self):
        items = self._items
        getters = self._getters
        while getters and items:
            getters.popleft().succeed(items.popleft())
