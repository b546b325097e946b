"""Tests for power-theft detection."""

import pytest

from repro.errors import ConfigurationError
from repro.sgx.platform import SgxPlatform
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.theft import TheftDetector
from repro.smartgrid.topology import GridTopology

HOUR = 3600.0


def make_world(seed=5, theft_meter=None, fraction=0.45):
    grid = GridTopology.build(
        feeders=1, transformers_per_feeder=3, meters_per_transformer=5
    )
    fleet = SmartMeterFleet(grid, seed=seed, interval=60.0)
    if theft_meter is not None:
        fleet.inject_theft(theft_meter, start=1 * HOUR, fraction=fraction)
    detector = TheftDetector(grid, interval=60.0)
    # Baseline: hour 0-1 (pre-theft); detection window: hour 1-2.
    baseline = fleet.readings_window(0.0, 1 * HOUR)
    window = fleet.readings_window(1 * HOUR, 2 * HOUR)
    transformer_measurements = fleet.transformer_window(1 * HOUR, 2 * HOUR)
    return grid, fleet, detector, baseline, window, transformer_measurements


class TestDetection:
    def test_clean_grid_not_flagged(self):
        _grid, _fleet, detector, baseline, window, measured = make_world()
        report = detector.detect(window, measured, baseline)
        assert report.flagged_transformers == []
        assert report.suspect_meters() == set()

    def test_theft_flags_right_transformer(self):
        _grid, _fleet, detector, baseline, window, measured = make_world(
            theft_meter="meter-0-1-02"
        )
        report = detector.detect(window, measured, baseline)
        assert report.flagged_transformers == ["tx-0-1"]

    def test_suspect_is_the_thief(self):
        _grid, fleet, detector, baseline, window, measured = make_world(
            theft_meter="meter-0-1-02"
        )
        report = detector.detect(window, measured, baseline)
        assert report.suspects["tx-0-1"] == "meter-0-1-02"
        precision, recall = report.score(fleet.theft_ground_truth)
        assert precision == 1.0
        assert recall == 1.0

    def test_loss_fraction_tracks_theft_size(self):
        _grid, _fleet, detector, baseline, window, measured = make_world(
            theft_meter="meter-0-1-02", fraction=0.45
        )
        report = detector.detect(window, measured, baseline)
        # One of five similar meters hides 45%: expect roughly 5-15% loss.
        assert 0.03 < report.loss_fraction["tx-0-1"] < 0.35

    def test_small_theft_below_threshold_not_flagged(self):
        _grid, _fleet, detector, baseline, window, measured = make_world(
            theft_meter="meter-0-1-02", fraction=0.05
        )
        report = detector.detect(window, measured, baseline)
        assert "tx-0-1" not in report.flagged_transformers

    def test_empty_readings_rejected(self):
        _grid, _fleet, detector, _baseline, _window, measured = make_world()
        with pytest.raises(ConfigurationError):
            detector.detect([], measured)

    def test_score_with_no_ground_truth(self):
        _grid, _fleet, detector, baseline, window, measured = make_world()
        report = detector.detect(window, measured, baseline)
        assert report.score(set()) == (1.0, 1.0)

    def test_without_baseline_only_transformer_flags(self):
        _grid, _fleet, detector, _baseline, window, measured = make_world(
            theft_meter="meter-0-1-02"
        )
        report = detector.detect(window, measured)
        assert report.flagged_transformers == ["tx-0-1"]
        assert report.suspects == {}


class TestSecureExecution:
    def test_secure_mapreduce_path_matches_plain(self):
        grid, fleet, _d, baseline, window, measured = make_world(
            theft_meter="meter-0-1-02"
        )
        plain_detector = TheftDetector(grid, interval=60.0)
        platform = SgxPlatform(seed=19, quoting_key_bits=512)
        secure_detector = TheftDetector(
            grid, interval=60.0, platform=platform, mappers=3
        )
        plain_report = plain_detector.detect(window, measured, baseline)
        secure_report = secure_detector.detect(window, measured, baseline)
        assert (
            secure_report.flagged_transformers
            == plain_report.flagged_transformers
        )
        assert secure_report.suspects == plain_report.suspects
        for transformer, loss in plain_report.loss_fraction.items():
            assert secure_report.loss_fraction[transformer] == pytest.approx(loss)
