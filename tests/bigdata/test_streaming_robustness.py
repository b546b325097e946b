"""Robustness tests for the reworked window operators.

Covers the unbounded-pane-growth regression (one-shot keys must be
evicted once the watermark passes), the pane budget's transient
refusal, the telemetry surface for late and shed records, and
hypothesis property tests over arrival orders.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bigdata.streaming import SlidingWindow, TumblingWindow
from repro.errors import CapacityError, FatalError, TransientError
from repro.telemetry.registry import MetricsRegistry


def count(records):
    return len(records)


class TestPaneEviction:
    def test_one_shot_keys_do_not_accumulate(self):
        """Regression: a long stream of one-shot keys (meters that
        report once and go silent) must not grow state without bound --
        the watermark passing a pane evicts it, key and all."""
        window = TumblingWindow(10.0, count, key_fn=lambda r: r["k"])
        for index in range(500):
            window.ingest(float(index), {"k": "one-shot-%d" % index})
        # At any instant only the keys of still-open panes are resident.
        assert window.open_windows <= 11

    def test_advance_watermark_evicts_dormant_keys(self):
        window = TumblingWindow(10.0, count, key_fn=lambda r: r["k"])
        window.ingest(0.0, {"k": "a"})
        window.ingest(1.0, {"k": "b"})
        assert window.open_windows == 2
        closed = window.advance_watermark(10.0)
        assert {key for _s, _e, key, _r in closed} == {"a", "b"}
        assert window.open_windows == 0
        # A dormant key has no footprint: state holds nothing for it.
        assert window.open_panes() == []

    def test_advance_watermark_is_monotonic(self):
        window = TumblingWindow(10.0, count)
        window.advance_watermark(50.0)
        assert window.advance_watermark(20.0) == []
        assert window.watermark == 50.0

    def test_sliding_panes_evict_too(self):
        window = SlidingWindow(10.0, 5.0, count, key_fn=lambda r: r["k"])
        for index in range(200):
            window.ingest(float(index), {"k": "k%d" % index})
        assert window.open_windows <= 2 * 12

    def test_a_full_operator_refuses_new_panes(self):
        """Overload is retryable: a record that would open a pane past
        ``pane_budget`` raises CapacityError, a TransientError and not
        a FatalError, and a record for an open pane still lands."""
        window = TumblingWindow(
            10.0, count, key_fn=lambda r: r["k"], pane_budget=1
        )
        window.ingest(0.0, {"k": "a"})
        with pytest.raises(CapacityError) as excinfo:
            window.ingest(1.0, {"k": "b"})
        assert isinstance(excinfo.value, TransientError)
        assert not isinstance(excinfo.value, FatalError)
        window.ingest(2.0, {"k": "a"})
        assert window.flush() == [(0.0, 10.0, "a", 2)]


class TestTelemetrySurface:
    def test_late_and_shed_counters_register(self):
        registry = MetricsRegistry()
        window = TumblingWindow(
            10.0, count, key_fn=lambda r: r["k"], registry=registry
        )
        window.ingest(100.0, {"k": "a"})
        window.ingest(1.0, {"k": "a"})            # late, dropped
        window.ingest(101.0, {"k": "b"})
        window.shed_pane(100.0, "a")
        snapshot = registry.to_json()
        assert b'"streaming.late_records{operator=0}":1' in snapshot
        assert b'"streaming.shed_records{operator=0}":1' in snapshot
        assert b'"streaming.open_panes{operator=0}"' in snapshot

    def test_operator_indices_are_distinct(self):
        registry = MetricsRegistry()
        TumblingWindow(10.0, count, registry=registry)
        TumblingWindow(10.0, count, registry=registry)
        snapshot = registry.to_json()
        assert b"{operator=0}" in snapshot and b"{operator=1}" in snapshot

    def test_late_counter_matches_attribute(self):
        registry = MetricsRegistry()
        window = TumblingWindow(10.0, count, registry=registry)
        window.ingest(100.0, {})
        for _ in range(3):
            window.ingest(0.0, {})
        assert window.late_records == 3
        assert b'"streaming.late_records{operator=0}":3' in (
            registry.to_json()
        )


timestamps = st.lists(
    st.floats(min_value=0.0, max_value=1_000.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


class TestWindowProperties:
    @settings(max_examples=40, deadline=None)
    @given(timestamps)
    def test_watermark_is_monotone(self, times):
        window = TumblingWindow(10.0, count)
        marks = []
        for timestamp in times:
            window.ingest(timestamp, {})
            marks.append(window.watermark)
        assert marks == sorted(marks)

    @settings(max_examples=40, deadline=None)
    @given(timestamps)
    def test_tumbling_counts_every_record_once(self, times):
        window = TumblingWindow(10.0, count, lateness=2_000.0)
        closed = []
        for timestamp in times:
            closed += window.ingest(timestamp, {})
        closed += window.flush()
        assert sum(result for _s, _e, _k, result in closed) == len(times)
        assert window.late_records == 0

    @settings(max_examples=40, deadline=None)
    @given(timestamps)
    def test_sliding_panes_never_double_count(self, times):
        """Each record lands in exactly size/slide sliding panes."""
        window = SlidingWindow(10.0, 5.0, count, lateness=2_000.0)
        closed = []
        for timestamp in times:
            closed += window.ingest(timestamp, {})
        closed += window.flush()
        total = sum(result for _s, _e, _k, result in closed)
        assert total == 2 * len(times)
        starts = [start for start, _e, _k, _r in closed]
        assert len(starts) == len(set(starts))

    @settings(max_examples=40, deadline=None)
    @given(timestamps, st.randoms(use_true_random=False))
    def test_late_accounting_is_exact_under_shuffles(self, times, rng):
        """However arrivals are shuffled, records accepted plus records
        counted late equals records offered."""
        shuffled = list(times)
        rng.shuffle(shuffled)
        window = TumblingWindow(10.0, count)
        closed = []
        for timestamp in shuffled:
            closed += window.ingest(timestamp, {})
        closed += window.flush()
        landed = sum(result for _s, _e, _k, result in closed)
        assert landed + window.late_records == len(shuffled)

    @settings(max_examples=40, deadline=None)
    @given(timestamps)
    def test_order_independence_with_enough_lateness(self, times):
        """With lateness covering the full span, any arrival order
        yields the same closed windows."""
        def run(sequence):
            window = TumblingWindow(10.0, count, lateness=2_000.0)
            closed = []
            for timestamp in sequence:
                closed += window.ingest(timestamp, {})
            closed += window.flush()
            return sorted(closed)

        assert run(times) == run(sorted(times)) == run(
            sorted(times, reverse=True)
        )
