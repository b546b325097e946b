"""A compact discrete-event kernel with generator-based processes.

The design follows the classic event/process simulation model (as in
SimPy) but is self-contained and deterministic: events scheduled for the
same instant fire in scheduling order, so a simulation with a fixed seed
always produces the same trace.

Usage::

    env = Environment()

    def worker(env, name):
        yield env.timeout(1.5)
        print(env.now, name, "done")

    env.process(worker(env, "a"))
    env.run()
"""

import heapq

from repro.errors import SecureCloudError


class SimulationError(SecureCloudError):
    """The simulation kernel was used incorrectly."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


PENDING = object()


class Event:
    """An occurrence at a point in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` triggers
    them, which schedules their callbacks to run at the current instant.
    Processes wait on events by yielding them.
    """

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._processed = False

    @property
    def triggered(self):
        """True once the event has a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self):
        """True once the kernel has run this event's callbacks."""
        return self._processed

    @property
    def ok(self):
        """True if the event succeeded; valid only once triggered."""
        return self._ok

    @property
    def value(self):
        """The event's value (or exception, if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception):
        """Trigger the event with an exception.

        A waiting process sees the exception raised at its yield point.
        """
        if self.triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise SimulationError("timeout delay must be non-negative")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)

    def succeed(self, value=None):  # pragma: no cover - guard
        raise SimulationError("a Timeout is triggered by the kernel")

    fail = succeed


class Process(Event):
    """Wraps a generator; the process event triggers when it returns.

    The generator yields events to wait on.  A failed event raises its
    exception inside the generator; an unhandled exception fails the
    process event (and propagates out of :meth:`Environment.run` if
    nobody waits on it).
    """

    def __init__(self, env, generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._waiting_on = None
        # Kick the process off at the current instant.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap._ok = True
        bootstrap._value = None
        env._schedule(bootstrap)

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        interruption = Event(self.env)
        interruption._ok = False
        interruption._value = Interrupt(cause)
        interruption.callbacks.append(self._resume)
        self.env._schedule(interruption)

    def _resume(self, trigger):
        if self.triggered:
            # Interrupted after completion-race; nothing to resume.
            return
        if self._waiting_on is not None:
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
        try:
            if trigger.ok:
                target = self._generator.send(trigger.value)
            else:
                target = self._generator.throw(trigger.value)
        except StopIteration as stop:
            super().succeed(getattr(stop, "value", None))
            return
        except Interrupt as exc:
            super().fail(exc)
            return
        except Exception as exc:
            super().fail(exc)
            return
        if not isinstance(target, Event):
            error = SimulationError(
                "process yielded %r; processes must yield Event objects" % (target,)
            )
            self._generator.close()
            super().fail(error)
            return
        if target.processed:
            # Callbacks already ran: resume at the current instant.
            relay = Event(self.env)
            relay._ok = target._ok
            relay._value = target._value
            relay.callbacks.append(self._resume)
            self.env._schedule(relay)
        else:
            # Pending or triggered-but-queued: the kernel will invoke the
            # callback when the event is popped.
            target.callbacks.append(self._resume)
            self._waiting_on = target


class AllOf(Event):
    """Triggers when every child event has succeeded.

    Its value is the list of child values in construction order.  Fails
    as soon as any child fails.
    """

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        self._done = False
        for event in self._events:
            if event.processed:
                if not event.ok:
                    self._finish_fail(event.value)
                    break
            else:
                self._pending += 1
                event.callbacks.append(self._on_child)
        if not self._done and self._pending == 0 and not self.triggered:
            self.succeed([event.value for event in self._events])

    def _finish_fail(self, exc):
        self._done = True
        if not self.triggered:
            self.fail(exc)

    def _on_child(self, child):
        if self._done or self.triggered:
            return
        if not child.ok:
            self._finish_fail(child.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([event.value for event in self._events])


class AnyOf(Event):
    """Triggers when the first child event triggers.

    Its value is a ``(event, value)`` pair identifying which child fired.
    """

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        fired = next((event for event in self._events if event.processed), None)
        if fired is not None:
            if fired.ok:
                self.succeed((fired, fired.value))
            else:
                self.fail(fired.value)
            return
        for event in self._events:
            event.callbacks.append(self._on_child)

    def _on_child(self, child):
        if self.triggered:
            return
        if child.ok:
            self.succeed((child, child.value))
        else:
            self.fail(child.value)


class Environment:
    """The discrete-event loop: a clock plus a priority queue of events."""

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._sequence = 0

    @property
    def now(self):
        """Current simulated time (float, unit chosen by the caller)."""
        return self._now

    def _schedule(self, event, delay=0.0):
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))
        self._sequence += 1

    def event(self):
        """Create a pending :class:`Event` bound to this environment."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def call_later(self, delay, callback):
        """Run ``callback()`` after ``delay`` time units; returns the event.

        Plain-callable convenience over the timeout/callback idiom used
        by fault schedules and benchmarks; the callback receives no
        arguments (wrap state in a closure).
        """
        timeout = Timeout(self, delay)
        timeout.callbacks.append(lambda _fired: callback())
        return timeout

    def call_at(self, time, callback):
        """Run ``callback()`` at absolute virtual ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule at %r; the clock is already at %r"
                % (time, self._now)
            )
        return self.call_later(time - self._now, callback)

    def process(self, generator):
        """Start a :class:`Process` driving ``generator``."""
        return Process(self, generator)

    def all_of(self, events):
        """Event that fires when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that fires when the first of ``events`` triggers."""
        return AnyOf(self, events)

    def step(self):
        """Process the single next event in the queue."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        self._now, _seq, event = heapq.heappop(self._queue)
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if not event.ok and not callbacks:
            # Nobody observed the failure: surface it instead of
            # letting the error pass silently.
            raise event.value

    def run(self, until=None):
        """Run until the queue drains, ``until`` (a time or an event).

        Returns the event's value if ``until`` is an event.
        """
        if isinstance(until, Event):
            sentinel = until
            while not sentinel.triggered:
                if not self._queue:
                    raise SimulationError("deadlock: event can no longer trigger")
                self.step()
            if sentinel.ok:
                return sentinel.value
            raise sentinel.value
        deadline = until
        while self._queue:
            if deadline is not None and self._queue[0][0] > deadline:
                self._now = deadline
                return None
            self.step()
        if deadline is not None:
            self._now = max(self._now, deadline)
        return None
