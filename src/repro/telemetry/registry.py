"""The virtual-clock-native metrics registry.

Counters, gauges, and histograms for a *simulated* system: every value
is a pure function of the simulation's deterministic state (virtual
cycle counts, event-clock timestamps, record sizes), never of wall
time.  Two same-seed runs must produce byte-identical snapshots -- the
chaos determinism gate asserts exactly that -- so the registry bans the
usual sources of snapshot noise:

- histogram buckets are *fixed at creation* (deterministic bucketing;
  no adaptive resizing whose shape depends on arrival order);
- snapshots are emitted with sorted keys and canonical JSON;
- instruments are updated from the one thread that drives the
  simulation (``tests/test_single_threaded_drivers.py`` keeps it one),
  so an update is a plain add and no increment can be lost.

Zero-cost-when-disabled: the process-wide default registry is
:data:`NULL_REGISTRY`, whose instruments are shared no-op singletons.
Instrumented subsystems resolve their handles once at construction, so
with telemetry off the hot path pays one attribute load and one no-op
method call.  Enable collection with :func:`enabled` (a context
manager) or :func:`set_default_registry`.
"""

import json
from contextlib import contextmanager

from repro.errors import ConfigurationError


def exponential_buckets(start, factor, count):
    """``count`` ascending bucket upper bounds: start, start*factor, ...

    The workhorse for cycle-valued histograms: deterministic, fixed at
    creation, covering many orders of magnitude with few buckets.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ConfigurationError(
            "need start > 0, factor > 1, count >= 1"
        )
    bounds = []
    upper = start
    for _ in range(count):
        bounds.append(upper)
        upper *= factor
    return tuple(bounds)


# Default for cycle-valued histograms: 1k cycles to ~4.3G cycles
# (~0.4 us to ~1.7 s at 2.6 GHz), factor-4 resolution.
DEFAULT_CYCLE_BUCKETS = exponential_buckets(1_000, 4, 12)
# Default for (virtual) seconds-valued histograms: 1 us to ~4.3 s.
DEFAULT_SECONDS_BUCKETS = exponential_buckets(1e-6, 4, 12)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class Gauge:
    """A point-in-time value, last write wins."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value


class Histogram:
    """Deterministically bucketed distribution of observed values.

    ``buckets`` are ascending upper bounds; values above the last bound
    land in an implicit overflow bucket.  The shape is fixed at
    creation, so the bucket a value lands in depends only on the value
    -- never on what was observed before it -- which keeps snapshots
    order-independent and bit-stable.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "total")

    def __init__(self, buckets=DEFAULT_CYCLE_BUCKETS):
        buckets = tuple(buckets)
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError(
                "histogram buckets must be non-empty and ascending"
            )
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.total = 0

    def _bucket_index(self, value):
        low, high = 0, len(self.buckets)
        while low < high:
            mid = (low + high) // 2
            if value <= self.buckets[mid]:
                high = mid
            else:
                low = mid + 1
        return low

    def observe(self, value):
        self.bucket_counts[self._bucket_index(value)] += 1
        self.count += 1
        self.total += value

    def resolution(self, value):
        """Width of the bucket ``value`` falls in (the measurement's
        granularity -- differences below this are not distinguishable
        from this histogram's snapshot)."""
        index = self._bucket_index(value)
        if index >= len(self.buckets):
            return float("inf")
        lower = self.buckets[index - 1] if index else 0
        return self.buckets[index] - lower

    def mean(self):
        return self.total / self.count if self.count else 0


def _label_suffix(labels):
    if not labels:
        return ""
    return "{%s}" % ",".join(
        "%s=%s" % (key, labels[key]) for key in sorted(labels)
    )


class MetricsRegistry:
    """A live registry: creates, memoizes, and snapshots instruments.

    Instruments are keyed by ``(kind, name, sorted labels)``; asking
    twice returns the same handle.  ``gauge_fn`` registers a callable
    sampled at snapshot time -- the zero-hot-path-cost way to expose a
    subsystem's existing counters (EPC fault totals, queue depths)
    without touching its fast path.
    """

    active = True

    def __init__(self):
        self._instruments = {}
        self._gauge_fns = {}
        self._indexes = {}

    def _get(self, kind, name, labels, factory):
        key = (kind, name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name, **labels):
        return self._get("counter", name, labels, Counter)

    def gauge(self, name, **labels):
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name, buckets=None, **labels):
        return self._get(
            "histogram", name, labels,
            lambda: Histogram(buckets or DEFAULT_CYCLE_BUCKETS),
        )

    def next_index(self, name):
        """A deterministic per-name ordinal (label for anonymous
        instances -- e.g. the Nth platform created under this registry,
        which is stable across same-seed runs where raw object ids and
        global instance counters are not)."""
        index = self._indexes.get(name, 0)
        self._indexes[name] = index + 1
        return index

    def gauge_fn(self, name, fn, **labels):
        """Register ``fn()`` to be sampled at snapshot time."""
        key = (name, tuple(sorted(labels.items())))
        self._gauge_fns[key] = fn

    def snapshot(self):
        """All instruments as a plain, sorted, JSON-able dict."""
        counters, gauges, histograms = {}, {}, {}
        for (kind, name, labels), instrument in self._instruments.items():
            full_name = name + _label_suffix(dict(labels))
            if kind == "counter":
                counters[full_name] = instrument.value
            elif kind == "gauge":
                gauges[full_name] = instrument.value
            else:
                histograms[full_name] = {
                    "buckets": list(instrument.buckets),
                    "bucket_counts": list(instrument.bucket_counts),
                    "count": instrument.count,
                    "total": instrument.total,
                }
        for (name, labels), fn in self._gauge_fns.items():
            gauges[name + _label_suffix(dict(labels))] = fn()
        snapshot = {}
        if counters:
            snapshot["counters"] = dict(sorted(counters.items()))
        if gauges:
            snapshot["gauges"] = dict(sorted(gauges.items()))
        if histograms:
            snapshot["histograms"] = dict(sorted(histograms.items()))
        return snapshot

    def to_json(self):
        """Canonical snapshot bytes (the determinism gate compares
        these byte-for-byte across same-seed runs)."""
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount=1):
        pass


class _NullGauge:
    __slots__ = ()
    value = 0

    def set(self, value):
        pass


class _NullHistogram:
    __slots__ = ()
    buckets = DEFAULT_CYCLE_BUCKETS
    count = 0
    total = 0

    def observe(self, value):
        pass

    def resolution(self, value):
        return float("inf")

    def mean(self):
        return 0


class NullRegistry:
    """The disabled registry: every instrument is a shared no-op.

    This is the process default, so instrumented hot paths cost one
    no-op method call when telemetry is off and snapshots stay empty.
    """

    active = False

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def counter(self, name, **labels):
        return self._COUNTER

    def gauge(self, name, **labels):
        return self._GAUGE

    def histogram(self, name, buckets=None, **labels):
        return self._HISTOGRAM

    def next_index(self, name):
        return 0

    def gauge_fn(self, name, fn, **labels):
        # Deliberately drops ``fn``: a disabled registry must not keep
        # subsystems alive through sampling closures.
        pass

    def snapshot(self):
        return {}

    def to_json(self):
        return b"{}"


NULL_REGISTRY = NullRegistry()

_default_registry = NULL_REGISTRY


def default_registry():
    """The registry instrumented subsystems resolve at construction."""
    return _default_registry


def set_default_registry(registry):
    """Install ``registry`` as the process default; returns the old one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def enabled(registry=None):
    """Collect metrics for the duration of the block.

    Installs ``registry`` (default: a fresh :class:`MetricsRegistry`)
    as the process default and restores the previous one on exit.
    Components constructed *inside* the block record into it; anything
    constructed before keeps its no-op handles.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)
