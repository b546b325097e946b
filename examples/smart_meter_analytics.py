"""Use case 1 (paper Section VI): smart-meter analytics in the cloud.

Simulates a distribution grid with sub-minute smart-meter readings, a
tampered meter hiding 40% of its consumption, and runs power-theft
detection whose aggregation executes on the *secure map/reduce engine*
(enclave mappers and reducers, sealed shuffle) -- the cloud never sees
a single plaintext reading.

Run:  python examples/smart_meter_analytics.py
"""

from repro.sgx.platform import SgxPlatform
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.quality import PowerQualityMonitor
from repro.smartgrid.theft import TheftDetector
from repro.smartgrid.topology import GridTopology

HOUR = 3600.0


def main():
    print("== Smart-meter analytics (power theft + power quality) ==")

    grid = GridTopology.build(
        feeders=2, transformers_per_feeder=3, meters_per_transformer=6
    )
    fleet = SmartMeterFleet(grid, seed=2024, interval=60.0)
    print(
        "grid: %d feeders, %d transformers, %d meters, 60 s sampling"
        % (len(grid.feeders), len(grid.transformers), len(grid.meters))
    )

    # A thief tampers with one meter at hour 1; a voltage sag hits
    # another transformer.
    thief = "meter-1-0-03"
    fleet.inject_theft(thief, start=1 * HOUR, fraction=0.4)
    fleet.inject_voltage_event("tx-0-2", 1.4 * HOUR, 1.5 * HOUR, per_unit=0.82)

    baseline = fleet.readings_window(0.0, 1 * HOUR)
    window = fleet.readings_window(1 * HOUR, 2 * HOUR)
    transformer_measurements = fleet.transformer_window(1 * HOUR, 2 * HOUR)
    print("collected %d readings for the detection window" % len(window))

    # --- theft detection with enclave-backed map/reduce ---
    platform = SgxPlatform()
    detector = TheftDetector(grid, interval=60.0, platform=platform, mappers=4)
    report = detector.detect(window, transformer_measurements, baseline)

    print("\n-- theft detection --")
    for transformer in grid.transformers:
        loss = report.loss_fraction.get(transformer, 0.0)
        flag = "FLAGGED" if transformer in report.flagged_transformers else ""
        print("  %-8s loss %5.1f%%  %s" % (transformer, loss * 100.0, flag))
    for transformer, meter in report.suspects.items():
        print("  suspect under %s: %s" % (transformer, meter))
    precision, recall = report.score(fleet.theft_ground_truth)
    print("  precision %.2f  recall %.2f (ground truth: %s)"
          % (precision, recall, sorted(fleet.theft_ground_truth)))

    # --- power quality over the same window ---
    print("\n-- power quality --")
    monitor = PowerQualityMonitor(grid, interval=60.0)
    events = monitor.detect(window)
    for event in events:
        print(
            "  %s %s for %.0f s (%d meters affected)"
            % (event.transformer, event.kind.upper(), event.duration,
               len(event.affected_meters))
        )
    if not events:
        print("  no events")
    print("\ndone.")


if __name__ == "__main__":
    main()
