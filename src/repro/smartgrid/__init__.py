"""Smart-grid use cases (paper Section VI).

The project's demonstrators: smart meters collect sub-minute power
consumption data; analytics over that data (power-theft prevention,
power-quality monitoring) run as secure big-data applications; fault
detection triggers millisecond-scale orchestration reactions.

- :mod:`~repro.smartgrid.topology` -- substation/feeder/transformer/
  meter hierarchy.
- :mod:`~repro.smartgrid.meters` -- synthetic load profiles and the
  meter data simulator, with theft and fault injection.
- :mod:`~repro.smartgrid.theft` -- power-theft detection analytics.
- :mod:`~repro.smartgrid.quality` -- power-quality (sag/swell/
  interruption) monitoring.
- :mod:`~repro.smartgrid.faults` -- fault detection and localisation.
"""

from repro.smartgrid.faults import FaultDetector, FaultEvent
from repro.smartgrid.meters import MeterReading, SmartMeterFleet
from repro.smartgrid.quality import PowerQualityMonitor, QualityEvent
from repro.smartgrid.theft import TheftDetector, TheftReport
from repro.smartgrid.topology import GridTopology

__all__ = [
    "FaultDetector",
    "FaultEvent",
    "GridTopology",
    "MeterReading",
    "PowerQualityMonitor",
    "QualityEvent",
    "SmartMeterFleet",
    "TheftDetector",
    "TheftReport",
]
