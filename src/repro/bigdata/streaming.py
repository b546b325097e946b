"""Windowed stream processing inside enclaves.

Smart-meter analytics are stream jobs: continuous sub-minute readings,
aggregated over time windows.  This module provides the two classic
window operators, which run as the per-shard operators of the sealed
streaming plane (``repro.streams``):

- :class:`TumblingWindow` -- fixed, non-overlapping windows;
- :class:`SlidingWindow` -- overlapping windows with a slide step.

Both are *event-time* operators: records carry timestamps, and windows
close when the watermark (event time high-water mark minus the allowed
lateness) passes their end.  Records arriving later than the allowed
lateness are counted but dropped, never silently mis-aggregated.

Pane bookkeeping is watermark-incremental: open panes are tracked in a
min-heap of window starts, so each ingest pays O(log panes) plus the
panes it actually closes -- not a scan of every open pane, which
degraded quadratically under many one-shot keys.  Watermarks can also
advance *without* a record (:meth:`~_WindowOperatorBase.advance_watermark`,
the punctuation hook), so panes for keys that stop emitting are evicted
as soon as the watermark passes them instead of lingering until some
unrelated record happens to arrive.

``late_records`` and ``shed_records`` stay readable as plain attributes
but are mirrored onto the telemetry registry (per-operator counters
plus an open-pane gauge), so ``repro.cli metrics`` and sealed telemetry
snapshots see window-operator health without reaching into instances.

A full operator refuses a new pane with
:class:`~repro.errors.CapacityError`, a
:class:`~repro.errors.TransientError`: backpressure, not poison.
"""

import heapq

from repro.errors import CapacityError, ConfigurationError
from repro.telemetry import default_registry


def _ordered(keys):
    """Deterministic ordering for pane keys of any (mixed) type."""
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=lambda key: (type(key).__name__, repr(key)))


class _WindowOperatorBase:
    """Shared machinery: watermark, lateness, closing, shedding."""

    def __init__(self, size, aggregate_fn, key_fn=None, lateness=0.0,
                 pane_budget=None, registry=None):
        if size <= 0:
            raise ConfigurationError("window size must be positive")
        if lateness < 0:
            raise ConfigurationError("lateness must be non-negative")
        if pane_budget is not None and pane_budget < 1:
            raise ConfigurationError("pane budget must be at least 1")
        self.size = size
        self.aggregate_fn = aggregate_fn
        self.key_fn = key_fn or (lambda record: None)
        self.lateness = lateness
        self.pane_budget = pane_budget
        self.watermark = float("-inf")
        self.late_records = 0
        self.shed_records = 0
        # (window_start, key) -> [records]
        self._panes = {}
        # (window_start, key) -> records dropped from a shed pane; the
        # mark survives until the window closes, so stragglers for a
        # shed pane keep counting instead of resurrecting it.
        self._shed = {}
        # window_start -> set of keys with an open (or shed) pane, plus
        # a min-heap of starts: closing pops ripe starts off the heap
        # instead of scanning every pane.
        self._starts = {}
        self._heap = []
        # Tombstones for shed panes whose window has now closed; the
        # plane drains these into emitted window metadata.
        self._shed_closed = []
        registry = registry if registry is not None else default_registry()
        index = registry.next_index("streaming.operator")
        self._tel_late = registry.counter(
            "streaming.late_records", operator=index
        )
        self._tel_shed = registry.counter(
            "streaming.shed_records", operator=index
        )
        registry.gauge_fn(
            "streaming.open_panes", lambda: len(self._panes), operator=index
        )

    def _windows_for(self, timestamp):
        raise NotImplementedError

    # -- ingest and closing --------------------------------------------

    def _track(self, window_start, key):
        keys = self._starts.get(window_start)
        if keys is None:
            keys = self._starts[window_start] = set()
            heapq.heappush(self._heap, window_start)
        keys.add(key)

    def ingest(self, timestamp, record):
        """Feed one record; returns the list of windows this closes.

        Each closed window is ``(window_start, window_end, key, result)``
        with ``result = aggregate_fn(values)``.  Raises
        :class:`~repro.errors.CapacityError` (transient backpressure)
        when a ``pane_budget`` is set and the record would open a pane
        beyond it -- nothing is mutated in that case, so the caller can
        retry after draining.
        """
        if timestamp < self.watermark - self.lateness:
            self.late_records += 1
            self._tel_late.inc()
            return []
        key = self.key_fn(record)
        starts = self._windows_for(timestamp)
        if self.pane_budget is not None:
            fresh = sum(
                1 for window_start in starts
                if (window_start, key) not in self._panes
                and (window_start, key) not in self._shed
            )
            if fresh and len(self._panes) + fresh > self.pane_budget:
                raise CapacityError(
                    "pane budget %d exceeded; %d panes open"
                    % (self.pane_budget, len(self._panes))
                )
        for window_start in starts:
            pane = (window_start, key)
            if pane in self._shed:
                # The pane was shed; the record joins its dropped count
                # rather than silently resurrecting a partial window.
                self._shed[pane] += 1
                self.shed_records += 1
                self._tel_shed.inc()
                continue
            records = self._panes.get(pane)
            if records is None:
                records = self._panes[pane] = []
                self._track(window_start, key)
            records.append(record)
        self.watermark = max(self.watermark, timestamp)
        return self._close_ripe()

    def advance_watermark(self, timestamp):
        """Advance the watermark without a record (a punctuation).

        Closes -- and thereby evicts -- every pane the new watermark
        passes, including panes for keys that stopped emitting.  This
        is the eviction path for dormant keys: before it existed, a
        pane lingered until some unrelated record's ingest happened to
        close its window.
        """
        self.watermark = max(self.watermark, timestamp)
        return self._close_ripe()

    def _close_pane(self, window_start, key, closed):
        pane = (window_start, key)
        dropped = self._shed.pop(pane, None)
        if dropped is not None:
            self._shed_closed.append(
                (window_start, window_start + self.size, key, dropped)
            )
            return
        values = self._panes.pop(pane)
        closed.append(
            (
                window_start,
                window_start + self.size,
                key,
                self.aggregate_fn(values),
            )
        )

    def _close_ripe(self):
        closing_point = self.watermark - self.lateness
        closed = []
        while self._heap and self._heap[0] + self.size <= closing_point:
            window_start = heapq.heappop(self._heap)
            # Stale entries are possible: extract() removes starts
            # without sifting the heap (lazy deletion).
            keys = self._starts.pop(window_start, None)
            if keys is None:
                continue
            for key in _ordered(keys):
                self._close_pane(window_start, key, closed)
        return closed

    def flush(self):
        """Close every open window (end of stream)."""
        closed = []
        for window_start in sorted(self._starts):
            for key in _ordered(self._starts[window_start]):
                self._close_pane(window_start, key, closed)
        self._starts.clear()
        self._heap = []
        return closed

    @property
    def open_windows(self):
        """Number of panes currently buffered."""
        return len(self._panes)

    # -- load shedding --------------------------------------------------

    def open_panes(self):
        """``(window_start, key, record_count)`` for every open pane."""
        return [
            (window_start, key, len(records))
            for (window_start, key), records in self._panes.items()
        ]

    def shed_pane(self, window_start, key):
        """Explicitly drop one open pane (load shedding).

        The buffered records are discarded and counted in
        ``shed_records``; the pane stays *marked* so stragglers keep
        counting and a tombstone carrying the dropped-record count is
        emitted when the window closes (drain it via
        :meth:`drain_shed_tombstones`) -- shedding is visible in the
        output stream, never silent.  Returns the records dropped.
        """
        pane = (window_start, key)
        records = self._panes.pop(pane, None)
        if records is None:
            raise ConfigurationError(
                "no open pane (%r, %r) to shed" % (window_start, key)
            )
        self._shed[pane] = len(records)
        self.shed_records += len(records)
        self._tel_shed.inc(len(records))
        return len(records)

    def drain_shed_tombstones(self):
        """``(window_start, window_end, key, records_dropped)`` for shed
        panes whose window has closed since the last drain."""
        tombstones = self._shed_closed
        self._shed_closed = []
        return tombstones

    # -- state migration (checkpoints and key-range handoff) -----------

    def state_dict(self):
        """JSON-serialisable snapshot of every open pane and counter."""
        watermark = self.watermark
        return {
            "watermark": None if watermark == float("-inf") else watermark,
            "late_records": self.late_records,
            "shed_records": self.shed_records,
            "panes": [
                [window_start, key, records]
                for (window_start, key), records in sorted(
                    self._panes.items(),
                    key=lambda item: (item[0][0], repr(item[0][1])),
                )
            ],
            "shed": [
                [window_start, key, dropped]
                for (window_start, key), dropped in sorted(
                    self._shed.items(),
                    key=lambda item: (item[0][0], repr(item[0][1])),
                )
            ],
        }

    def load_state_dict(self, state):
        """Restore from :meth:`state_dict`; replaces current state."""
        self._panes = {}
        self._shed = {}
        self._starts = {}
        self._heap = []
        self._shed_closed = []
        watermark = state.get("watermark")
        self.watermark = float("-inf") if watermark is None else watermark
        self.late_records = state.get("late_records", 0)
        self.shed_records = state.get("shed_records", 0)
        for window_start, key, records in state.get("panes", ()):
            self._panes[(window_start, key)] = list(records)
            self._track(window_start, key)
        for window_start, key, dropped in state.get("shed", ()):
            self._shed[(window_start, key)] = dropped
            self._track(window_start, key)

    def extract(self, predicate):
        """Remove and return panes whose key satisfies ``predicate``.

        Returns a partial state dict (panes, shed marks, watermark)
        suitable for :meth:`adopt` on another operator -- the key-range
        handoff primitive for shard splits and merges.  Counters stay
        with this operator.
        """
        moved_panes = []
        for pane in sorted(
            self._panes, key=lambda item: (item[0], repr(item[1]))
        ):
            window_start, key = pane
            if predicate(key):
                moved_panes.append(
                    [window_start, key, self._panes.pop(pane)]
                )
        moved_shed = []
        for pane in sorted(
            self._shed, key=lambda item: (item[0], repr(item[1]))
        ):
            window_start, key = pane
            if predicate(key):
                moved_shed.append([window_start, key, self._shed.pop(pane)])
        for window_start, key, _payload in moved_panes + moved_shed:
            keys = self._starts.get(window_start)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._starts[window_start]
        watermark = self.watermark
        return {
            "watermark": None if watermark == float("-inf") else watermark,
            "panes": moved_panes,
            "shed": moved_shed,
        }

    def adopt(self, part):
        """Merge a partial state dict produced by :meth:`extract`.

        Pane contents must be disjoint from this operator's (a key is
        owned by exactly one shard at a time); the watermark advances
        to the donor's if it is ahead, so adopted panes can never
        reopen behind the closing point.
        """
        for window_start, key, records in part.get("panes", ()):
            pane = (window_start, key)
            if pane in self._panes or pane in self._shed:
                raise ConfigurationError(
                    "pane (%r, %r) already open here; ranges overlap"
                    % (window_start, key)
                )
            self._panes[pane] = list(records)
            self._track(window_start, key)
        for window_start, key, dropped in part.get("shed", ()):
            pane = (window_start, key)
            if pane in self._panes or pane in self._shed:
                raise ConfigurationError(
                    "pane (%r, %r) already open here; ranges overlap"
                    % (window_start, key)
                )
            self._shed[pane] = dropped
            self._track(window_start, key)
        watermark = part.get("watermark")
        if watermark is not None:
            self.watermark = max(self.watermark, watermark)


class TumblingWindow(_WindowOperatorBase):
    """Non-overlapping fixed windows: [0,s), [s,2s), ..."""

    def _windows_for(self, timestamp):
        return [int(timestamp // self.size) * self.size]


class SlidingWindow(_WindowOperatorBase):
    """Overlapping windows of ``size`` sliding by ``slide``."""

    def __init__(self, size, slide, aggregate_fn, key_fn=None, lateness=0.0,
                 pane_budget=None, registry=None):
        super().__init__(
            size, aggregate_fn, key_fn=key_fn, lateness=lateness,
            pane_budget=pane_budget, registry=registry,
        )
        if slide <= 0 or slide > size:
            raise ConfigurationError("need 0 < slide <= size")
        self.slide = slide

    def _windows_for(self, timestamp):
        last_start = int(timestamp // self.slide) * self.slide
        starts = []
        start = last_start
        while start > timestamp - self.size:
            starts.append(start)
            start -= self.slide
        return starts
