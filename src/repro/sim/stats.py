"""Statistics helpers: named counters for event counts and byte totals."""


class Counter:
    """A simple named accumulator for event counts and byte totals."""

    __slots__ = ("name", "value")

    def __init__(self, name=""):
        self.name = name
        self.value = 0

    def add(self, amount=1):
        """Increase the counter by *amount* (default 1)."""
        self.value += amount

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"
