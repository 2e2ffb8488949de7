"""The per-IOP SCSI I/O bus."""

from repro.disk.drive import BusPort
from repro.sim.resources import Resource
from repro.sim.stats import Counter


class ScsiBus:
    """One I/O bus (Table 1: SCSI, 10 Mbytes/s peak), shared by an IOP's disks.

    All data moving between a drive and its IOP's memory crosses this bus;
    when several disks share one bus (Figures 6-8) the bus becomes the
    bottleneck at roughly its peak bandwidth.
    """

    def __init__(self, env, bandwidth, transfer_overhead=0.0, name="scsi"):
        self.env = env
        self.bandwidth = bandwidth
        self.transfer_overhead = transfer_overhead
        self.name = name
        self.resource = Resource(env, capacity=1, name=name)
        self.bytes_transferred = Counter(f"{name}.bytes")
        #: seconds of bus occupancy summed over completed transfers.
        self.busy_seconds = 0.0
        self._created_at = env.now
        #: seconds of bus occupancy attributed to each collective session
        #: (session id -> seconds); dropped by :meth:`release_session`.
        self.session_busy = {}

    def port(self):
        """Create a :class:`~repro.disk.drive.BusPort` for attaching one drive."""
        return _CountingBusPort(self)

    def busy_fraction(self):
        """Fraction of simulated time the bus has been occupied.

        One transfer holds the bus at a time, so the busy time is the sum of
        the completed transfers' occupancies.
        """
        elapsed = self.env.now - self._created_at
        return self.busy_seconds / elapsed if elapsed > 0 else 0.0

    def session_busy_seconds(self, session_id):
        """Seconds this bus spent moving *session_id*'s data."""
        return self.session_busy.get(session_id, 0.0)

    def release_session(self, session_id):
        """Drop per-session accounting once the session's result is final."""
        self.session_busy.pop(session_id, None)


class _CountingBusPort(BusPort):
    """BusPort that also records byte counts and bus and session occupancy."""

    def __init__(self, bus):
        super().__init__(bus.resource, bus.bandwidth, bus.transfer_overhead)
        self._bus = bus

    def _account(self, n_bytes, session_id):
        bus = self._bus
        seconds = self.transfer_time(n_bytes)
        bus.busy_seconds += seconds
        bus.bytes_transferred.add(n_bytes)
        if session_id is not None:
            busy = bus.session_busy
            busy[session_id] = busy.get(session_id, 0.0) + seconds

    def transfer(self, env, n_bytes, session_id=None):
        yield from super().transfer(env, n_bytes)
        self._account(n_bytes, session_id)

    def transfer_event(self, env, n_bytes, session_id=None):
        event = self.resource.acquire_event(self.transfer_time(n_bytes))
        if event is None:
            return None
        # Accounting rides on the hold event so it still happens at transfer
        # *end* (after the release callback, before the waiter resumes) —
        # the same effect order as the generator path.
        event.callbacks.append(
            lambda _event: self._account(n_bytes, session_id))
        return event
