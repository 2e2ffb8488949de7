"""Barrier synchronisation built on events.

The paper's collective-I/O pseudo-code uses barriers among the CPs.
"""

from repro.sim.events import Event


class Barrier:
    """A reusable barrier for a fixed number of participants.

    Each participant calls :meth:`wait` and yields the returned event; once
    all *parties* have arrived, every waiter is released and the barrier
    resets for the next generation.
    """

    def __init__(self, env, parties, name=None):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.parties = parties
        self.name = name or f"barrier@{id(self):#x}"
        self._waiting = []
        self.generation = 0

    @property
    def n_waiting(self):
        """Number of participants currently blocked at the barrier."""
        return len(self._waiting)

    def wait(self):
        """Arrive at the barrier; returns an event that fires when all arrive.

        The event's value is the generation number that was completed.
        """
        event = Event(self.env)
        self._waiting.append(event)
        if len(self._waiting) >= self.parties:
            generation = self.generation
            self.generation += 1
            waiters, self._waiting = self._waiting, []
            for waiter in waiters:
                waiter.succeed(generation)
        return event
