"""Power-quality monitoring.

Classifies voltage samples against EN 50160-style bands and aggregates
per-transformer events: a **sag** (below 0.9 pu), a **swell** (above
1.1 pu), or an **interruption** (below 0.05 pu).  A transformer-level
event is raised when at least ``QUORUM`` of its meters agree in the
same sample slot (a single odd meter is a metering problem, not a grid
problem); consecutive slots merge into one event.
"""

from collections import defaultdict
from dataclasses import dataclass

from repro.smartgrid.meters import NOMINAL_VOLTS

SAG_PU = 0.9
SWELL_PU = 1.1
INTERRUPTION_PU = 0.05
QUORUM = 0.5


def classify_sample(volts):
    """'normal' | 'sag' | 'swell' | 'interruption' for one sample."""
    per_unit = volts / NOMINAL_VOLTS
    if per_unit < INTERRUPTION_PU:
        return "interruption"
    if per_unit < SAG_PU:
        return "sag"
    if per_unit > SWELL_PU:
        return "swell"
    return "normal"


@dataclass(frozen=True)
class QualityEvent:
    """One transformer-level power-quality event."""

    transformer: str
    kind: str
    start: float
    end: float
    affected_meters: tuple

    @property
    def duration(self):
        return self.end - self.start


class PowerQualityMonitor:
    """Turns raw readings into transformer-level quality events."""

    def __init__(self, topology, interval=30.0):
        self.topology = topology
        self.interval = interval
        self._transformer_of = {
            meter: topology.transformer_of(meter) for meter in topology.meters
        }
        self._meter_counts = {
            transformer: len(topology.meters_under(transformer))
            for transformer in topology.transformers
        }

    def sample_classifications(self, readings):
        """Per-sample classification counts (diagnostics)."""
        counts = defaultdict(int)
        for reading in readings:
            counts[classify_sample(reading.volts)] += 1
        return dict(counts)

    def detect(self, readings):
        """Aggregate readings into :class:`QualityEvent` objects."""
        # (transformer, slot) -> kind -> [meters]
        slots = defaultdict(lambda: defaultdict(list))
        for reading in readings:
            kind = classify_sample(reading.volts)
            if kind == "normal":
                continue
            transformer = self._transformer_of[reading.meter_id]
            slot = int(reading.timestamp // self.interval)
            slots[(transformer, slot)][kind].append(reading.meter_id)

        # Keep slots meeting the quorum, then merge consecutive ones.
        flagged = {}
        for (transformer, slot), kinds in slots.items():
            for kind, meters in kinds.items():
                threshold = self._meter_counts[transformer] * QUORUM
                if len(meters) >= threshold:
                    flagged[(transformer, slot, kind)] = meters

        events = []
        for (transformer, slot, kind) in sorted(flagged):
            meters = flagged[(transformer, slot, kind)]
            previous = next(
                (
                    event
                    for event in events
                    if event.transformer == transformer
                    and event.kind == kind
                    and abs(event.end - slot * self.interval) < 1e-9
                ),
                None,
            )
            if previous is not None:
                events.remove(previous)
                events.append(
                    QualityEvent(
                        transformer=transformer,
                        kind=kind,
                        start=previous.start,
                        end=(slot + 1) * self.interval,
                        affected_meters=tuple(
                            sorted(set(previous.affected_meters) | set(meters))
                        ),
                    )
                )
            else:
                events.append(
                    QualityEvent(
                        transformer=transformer,
                        kind=kind,
                        start=slot * self.interval,
                        end=(slot + 1) * self.interval,
                        affected_meters=tuple(sorted(meters)),
                    )
                )
        return sorted(events, key=lambda event: (event.start, event.transformer))
