"""Tests for windowed stream processing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.bigdata.streaming import SlidingWindow, TumblingWindow


def mean(records):
    values = [record["w"] for record in records]
    return sum(values) / len(values)


def count(records):
    return len(records)


class TestTumblingWindow:
    def test_windows_close_when_watermark_passes(self):
        window = TumblingWindow(10.0, count)
        assert window.ingest(1.0, {"w": 1}) == []
        assert window.ingest(5.0, {"w": 1}) == []
        closed = window.ingest(10.0, {"w": 1})
        assert closed == [(0.0, 10.0, None, 2)]

    def test_aggregation(self):
        window = TumblingWindow(10.0, mean)
        window.ingest(0.0, {"w": 10.0})
        window.ingest(5.0, {"w": 20.0})
        closed = window.ingest(12.0, {"w": 99.0})
        assert closed[0][3] == pytest.approx(15.0)

    def test_keyed_windows_separate(self):
        window = TumblingWindow(10.0, count, key_fn=lambda r: r["meter"])
        window.ingest(0.0, {"meter": "a"})
        window.ingest(1.0, {"meter": "b"})
        window.ingest(2.0, {"meter": "a"})
        closed = window.ingest(15.0, {"meter": "a"})
        results = {(key): result for _s, _e, key, result in closed}
        assert results == {"a": 2, "b": 1}

    def test_flush_closes_everything(self):
        window = TumblingWindow(10.0, count)
        closed = []
        closed += window.ingest(0.0, {})
        closed += window.ingest(25.0, {})  # closes [0, 10) en route
        closed += window.flush()
        starts = sorted(start for start, _e, _k, _r in closed)
        assert starts == [0.0, 20.0]
        assert window.open_windows == 0

    def test_lateness_tolerates_minor_disorder(self):
        window = TumblingWindow(10.0, count, lateness=5.0)
        window.ingest(12.0, {})
        closed = window.ingest(9.0, {})  # late but within lateness
        assert closed == []
        closed = window.ingest(16.0, {})
        assert closed == [(0.0, 10.0, None, 1)]
        assert window.late_records == 0

    def test_too_late_records_dropped_and_counted(self):
        window = TumblingWindow(10.0, count, lateness=2.0)
        window.ingest(20.0, {})
        window.ingest(5.0, {})  # beyond lateness: dropped
        assert window.late_records == 1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            TumblingWindow(0.0, count)
        with pytest.raises(ConfigurationError):
            TumblingWindow(10.0, count, lateness=-1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), max_size=60))
    def test_every_in_order_record_lands_in_exactly_one_window(self, times):
        times.sort()
        window = TumblingWindow(10.0, count)
        total = 0
        for timestamp in times:
            for _s, _e, _k, result in window.ingest(timestamp, {}):
                total += result
        for _s, _e, _k, result in window.flush():
            total += result
        assert total == len(times)


class TestSlidingWindow:
    def test_record_lands_in_overlapping_windows(self):
        window = SlidingWindow(10.0, 5.0, count)
        window.ingest(7.0, {})          # windows [0,10) and [5,15)
        closed = window.ingest(20.0, {})
        counted = {start: result for start, _e, _k, result in closed}
        assert counted[0.0] == 1
        assert counted[5.0] == 1

    def test_slide_equals_size_behaves_like_tumbling(self):
        sliding = SlidingWindow(10.0, 10.0, count)
        tumbling = TumblingWindow(10.0, count)
        for timestamp in (1.0, 4.0, 11.0, 14.0, 25.0):
            sliding_closed = sliding.ingest(timestamp, {})
            tumbling_closed = tumbling.ingest(timestamp, {})
            assert sliding_closed == tumbling_closed

    def test_invalid_slide(self):
        with pytest.raises(ConfigurationError):
            SlidingWindow(10.0, 0.0, count)
        with pytest.raises(ConfigurationError):
            SlidingWindow(10.0, 20.0, count)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=50.0,
                              allow_nan=False), max_size=40))
    def test_each_record_in_size_over_slide_windows(self, times):
        times.sort()
        window = SlidingWindow(10.0, 5.0, count)
        total = 0
        for timestamp in times:
            for *_rest, result in window.ingest(timestamp, {}):
                total += result
        for *_rest, result in window.flush():
            total += result
        assert total == 2 * len(times)  # size/slide = 2 windows each
