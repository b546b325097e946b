"""Virtual CPU-cycle clock.

The SGX cost model charges every memory access, enclave transition, and
page fault in CPU cycles.  Measuring wall-clock time of a Python
simulator would reflect interpreter overhead, not SGX behaviour; instead
all micro-architectural experiments read this clock.  The default
frequency matches the 2.6 GHz Xeon used by SCONE's evaluation so that
converted latencies are directly comparable to published numbers.
"""

DEFAULT_FREQUENCY_HZ = 2_600_000_000


def cycles_to_seconds(cycles, frequency_hz=DEFAULT_FREQUENCY_HZ):
    """Convert a cycle count to seconds at the given core frequency."""
    return cycles / frequency_hz


def seconds_to_cycles(seconds, frequency_hz=DEFAULT_FREQUENCY_HZ):
    """Convert seconds to an integer cycle count at the given frequency."""
    return int(round(seconds * frequency_hz))


class CycleClock:
    """A monotonically increasing virtual cycle counter.

    Components *charge* costs to the clock::

        clock = CycleClock()
        clock.charge(40)          # one LLC hit
        clock.now                 # -> 40
        clock.now_seconds         # -> 40 / 2.6e9

    The clock never goes backwards; :meth:`charge` rejects negative
    amounts so accounting bugs surface immediately.
    """

    def __init__(self, frequency_hz=DEFAULT_FREQUENCY_HZ):
        if frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        self.frequency_hz = frequency_hz
        self._cycles = 0

    @property
    def now(self):
        """Current virtual time in cycles."""
        return self._cycles

    @property
    def now_seconds(self):
        """Current virtual time in seconds."""
        return cycles_to_seconds(self._cycles, self.frequency_hz)

    def charge(self, cycles):
        """Advance the clock by ``cycles`` and return the new time."""
        if cycles < 0:
            raise ValueError("cannot charge a negative number of cycles")
        self._cycles += int(cycles)
        return self._cycles

    def measure(self):
        """Return a :class:`CycleSpan` starting now, for scoped timing."""
        return CycleSpan(self)

    def reset(self):
        """Reset the clock to zero (intended for benchmark harnesses)."""
        self._cycles = 0


class CycleSpan:
    """Measures cycles elapsed on a :class:`CycleClock` over a scope.

    Usable either explicitly (``span = clock.measure(); ...;
    span.elapsed``) or as a context manager::

        with clock.measure() as span:
            run_workload()
        print(span.elapsed)
    """

    def __init__(self, clock):
        self._clock = clock
        self.start = clock.now
        self.end = None

    def __enter__(self):
        self.start = self._clock.now
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = self._clock.now
        return False

    @property
    def elapsed(self):
        """Cycles elapsed from start until :meth:`stop` (or now)."""
        end = self.end if self.end is not None else self._clock.now
        return end - self.start

    @property
    def elapsed_seconds(self):
        """Elapsed time converted to seconds at the clock frequency."""
        return cycles_to_seconds(self.elapsed, self._clock.frequency_hz)
