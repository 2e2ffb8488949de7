"""Generator-based simulation processes.

A process wraps a Python generator that yields :class:`~repro.sim.events.Event`
objects.  When a yielded event is processed, the process is resumed with the
event's value (or the event's exception is thrown into the generator).  The
process object is itself an event that succeeds with the generator's return
value, so processes can wait for each other simply by yielding them.

:meth:`Process._resume` is the single hottest function in the simulator (it
runs once per processed event with a waiter), so the common success path is
fully inlined there; the rarely-taken throw paths (a failed event, a yielded
non-event) go through :meth:`Process._step`.  The two must stay
behaviourally in sync.
"""

from repro.sim.events import _PENDING, Event


class Process(Event):
    """A running simulation process (also usable as a "join" event)."""

    __slots__ = ("_generator", "_waiting_on", "__weakref__")

    def __init__(self, env, generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?")
        super().__init__(env)
        self._generator = generator
        self._waiting_on = None
        registry = getattr(env, "_processes", None)
        if registry is not None:
            # Weak registration: lets the environment name still-alive
            # processes in DeadlockError diagnoses without keeping finished
            # processes (or their generator frames) alive.
            registry.add(self)
        # Kick the generator off via an initial event so that process start
        # happens inside the event loop, in creation order.
        start = Event(env)
        start.callbacks.append(self._resume)
        start.succeed()

    # -- public API -----------------------------------------------------------
    @property
    def is_alive(self):
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    @property
    def name(self):
        """Best-effort human-readable name (the generator function's name)."""
        return getattr(self._generator, "__name__", repr(self._generator))

    # -- internals --------------------------------------------------------------
    def _resume(self, event):
        self._waiting_on = None
        ok = event._ok
        if ok or ok is None:
            # Inlined success path of _step (the overwhelmingly common case).
            env = self.env
            previous = env._active_process
            env._active_process = self
            try:
                value = event._value
                target = self._generator.send(
                    value if value is not _PENDING else None)
            except StopIteration as stop:
                env._active_process = previous
                self.succeed(stop.value)
                return
            except Exception as exc:  # model error inside the process
                env._active_process = previous
                self.fail(exc)
                return
            finally:
                # Mirrors _step: restore even when a BaseException (e.g.
                # KeyboardInterrupt) escapes the generator.
                env._active_process = previous
            # Inlined _wait_for fast path: attach to a live event (the
            # overwhelmingly common case); anything else goes the slow way.
            if isinstance(target, Event) and target.callbacks is not None:
                target.callbacks.append(self._resume)
                self._waiting_on = target
            else:
                self._wait_for(target)
        else:
            event._defused = True
            self._step(throw=event._value)

    def _step(self, throw):
        """Throw *throw* into the generator and attach to what it yields next."""
        env = self.env
        previous, env._active_process = env._active_process, self
        try:
            target = self._generator.throw(throw)
        except StopIteration as stop:
            env._active_process = previous
            self.succeed(stop.value)
            return
        except Exception as exc:  # model error inside the process
            env._active_process = previous
            self.fail(exc)
            return
        finally:
            env._active_process = previous

        self._wait_for(target)

    def _wait_for(self, target):
        """Attach to the event the generator just yielded."""
        if not isinstance(target, Event):
            # Thrown into the generator like a failed event: it may catch
            # the error and yield again, or finish by failing the process.
            self._step(throw=TypeError(
                f"process {self.name!r} yielded {target!r}, which is not an Event"))
            return
        if target.callbacks is None:
            # Already finished: resume on the next scheduling round to keep
            # event ordering fair.
            bounce = Event(self.env)
            bounce._ok = target._ok
            bounce._value = target._value
            if not target._ok:
                target._defused = True
            bounce.callbacks.append(self._resume)
            self.env._schedule_now(bounce)
            self._waiting_on = bounce
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def __repr__(self):
        state = "finished" if self._value is not _PENDING else "running"
        return f"<Process {self.name} {state}>"
