"""Exception types used by the simulation kernel."""


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class DeadlockError(SimulationError):
    """The simulation can no longer make progress.

    Raised instead of hanging (or silently running out of events) when the
    calendar empties while a waited-on event is still pending, or when the
    watchdog sees events firing without simulated time ever advancing.  The
    message names the processes that are still alive and what each one is
    waiting on, so a stuck run is diagnosable from the traceback alone.
    """
