"""Fault detection and localisation (use case 2).

Streams of meter readings feed the detector; when meters go dark
(interruption-level voltage), the fault is localised to the deepest
grid element whose *entire* meter subtree is dark -- a single dark
meter is a meter problem, a dark transformer subtree is a transformer
fault, a dark feeder subtree is a feeder fault.

The detector records the virtual time of its first localisation so the
E4-style experiments can report detection latency; reactions (load
transfer, crew dispatch, consumer notification) are delegated to the
orchestrator layer.
"""

from dataclasses import dataclass

from repro.smartgrid.quality import classify_sample


@dataclass(frozen=True)
class FaultEvent:
    """One localised fault."""

    element: str
    kind: str
    detected_at: float
    dark_meters: tuple


class FaultDetector:
    """Localises supply interruptions from meter telemetry."""

    def __init__(self, topology):
        self.topology = topology
        self.events = []
        self._active_elements = set()

    def _localise(self, dark_meters):
        """Deepest elements whose whole meter subtree is dark.

        Handles multiple simultaneous faults: each fully-dark
        transformer is a candidate; fully-dark transformers of a
        fully-dark feeder merge into one feeder-level fault; dark
        meters under healthy transformers localise to the meter itself.
        """
        if not dark_meters:
            return []
        dark = set(dark_meters)
        dark_transformers = {
            transformer
            for transformer in self.topology.transformers
            if set(self.topology.meters_under(transformer)) <= dark
        }
        dark_feeders = {
            feeder
            for feeder in self.topology.feeders
            if all(
                transformer in dark_transformers
                for transformer in self.topology.children_of(feeder)
            )
        }
        elements = set(dark_feeders)
        for transformer in dark_transformers:
            if self.topology.parent_of(transformer) not in dark_feeders:
                elements.add(transformer)
        covered = set()
        for element in elements:
            covered |= set(self.topology.meters_under(element))
        elements |= dark - covered  # isolated meter outages
        return sorted(elements)

    def observe_slot(self, timestamp, readings):
        """Feed one sample slot (all meters, same timestamp).

        Returns the list of *newly* localised :class:`FaultEvent`
        objects for this slot (empty while known faults persist).
        """
        dark = {
            reading.meter_id
            for reading in readings
            if classify_sample(reading.volts) == "interruption"
        }
        elements = self._localise(dark)
        fresh = []
        for element in elements:
            if element in self._active_elements:
                continue
            affected = set(self.topology.meters_under(element)) or {element}
            event = FaultEvent(
                element=element,
                kind=self.topology.kind_of(element),
                detected_at=timestamp,
                dark_meters=tuple(sorted(affected & dark or {element})),
            )
            self.events.append(event)
            fresh.append(event)
        self._active_elements = set(elements)
        return fresh

    def scan_window(self, fleet, start, end):
        """Convenience: replay a window slot by slot."""
        new_events = []
        timestamp = start
        while timestamp < end:
            readings = [
                fleet.reading(meter, timestamp)
                for meter in self.topology.meters
            ]
            new_events.extend(self.observe_slot(timestamp, readings))
            timestamp += fleet.interval
        return new_events
