"""Power-theft detection (use case 1).

A tampered meter under-reports its consumption, but the utility's own
transformer-level instrumentation still sees the true aggregate load.
The detector therefore:

1. aggregates *reported* meter energy per (transformer, time bucket) --
   a map/reduce job over the raw readings, optionally executed on the
   secure map/reduce engine so the cloud never sees consumption data;
2. compares it with the *measured* transformer energy: a persistent
   loss fraction above ``LOSS_THRESHOLD`` flags the transformer
   (non-technical loss);
3. within a flagged transformer, ranks meters by the drop of their
   reported load between a baseline window and the detection window --
   the meter whose reported share collapsed is the suspect.
"""

import ast
from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce, plain_mapreduce

BUCKET_SECONDS = 900.0      # energy is compared per 15-minute bucket
LOSS_THRESHOLD = 0.05       # mean loss fraction that flags a transformer
REDUCERS = 2                # reduce tasks of the secure aggregation job


@dataclass
class TheftReport:
    """Outcome of one detection run."""

    flagged_transformers: list
    loss_fraction: dict
    suspects: dict = field(default_factory=dict)   # transformer -> meter

    def suspect_meters(self):
        """All suspect meters."""
        return set(self.suspects.values())

    def score(self, ground_truth):
        """(precision, recall) of the suspect set vs injected theft."""
        suspects = self.suspect_meters()
        if not suspects:
            return (1.0 if not ground_truth else 0.0,
                    1.0 if not ground_truth else 0.0)
        true_positives = len(suspects & set(ground_truth))
        precision = true_positives / len(suspects)
        recall = (
            true_positives / len(ground_truth) if ground_truth else 1.0
        )
        return precision, recall


def _aggregation_job(transformer_of, interval):
    """Build the map/reduce functions for reported-energy aggregation."""

    def map_reported(record):
        bucket = int(record["t"] // BUCKET_SECONDS)
        transformer = transformer_of[record["meter"]]
        # Energy in watt-seconds contributed by this sample.
        yield (transformer, bucket), record["w"] * interval

    def reduce_sum(_key, values):
        return sum(values)

    return map_reported, reduce_sum


class TheftDetector:
    """Compares reported and measured energy over the topology."""

    def __init__(self, topology, interval=30.0, platform=None, mappers=4):
        self.topology = topology
        self.interval = interval
        self.platform = platform
        self.mappers = mappers
        self._transformer_of = {
            meter: topology.transformer_of(meter) for meter in topology.meters
        }

    def _aggregate_reported(self, readings):
        """(transformer, bucket) -> reported watt-seconds."""
        records = [reading.to_record() for reading in readings]
        map_fn, reduce_fn = _aggregation_job(
            self._transformer_of, self.interval
        )
        if self.platform is not None:
            job = MapReduceJob(map_fn, reduce_fn,
                               mappers=self.mappers, reducers=REDUCERS)
            keyed = SecureMapReduce(self.platform, job).run(records)
            return {
                ast.literal_eval(key): value for key, value in keyed.items()
            }
        return plain_mapreduce(map_fn, reduce_fn, records)

    def _aggregate_measured(self, transformer_measurements):
        totals = defaultdict(float)
        for transformer, timestamp, watts in transformer_measurements:
            bucket = int(timestamp // BUCKET_SECONDS)
            totals[(transformer, bucket)] += watts * self.interval
        return totals

    def detect(self, readings, transformer_measurements,
               baseline_readings=None):
        """Run detection; returns a :class:`TheftReport`.

        ``baseline_readings`` (same length of window, pre-theft) enable
        meter-level suspect ranking; without them only transformer-level
        flags are produced.
        """
        if not readings:
            raise ConfigurationError("no readings to analyse")
        reported = self._aggregate_reported(readings)
        measured = self._aggregate_measured(transformer_measurements)

        # Persistent loss per transformer across buckets.
        loss_by_transformer = defaultdict(list)
        for (transformer, bucket), measured_energy in measured.items():
            if measured_energy <= 0:
                continue
            reported_energy = reported.get((transformer, bucket), 0.0)
            loss_by_transformer[transformer].append(
                1.0 - reported_energy / measured_energy
            )
        loss_fraction = {
            transformer: sum(losses) / len(losses)
            for transformer, losses in loss_by_transformer.items()
        }
        flagged = sorted(
            transformer
            for transformer, loss in loss_fraction.items()
            if loss > LOSS_THRESHOLD
        )

        suspects = {}
        if baseline_readings:
            suspects = self._rank_suspects(flagged, readings, baseline_readings)
        return TheftReport(
            flagged_transformers=flagged,
            loss_fraction=loss_fraction,
            suspects=suspects,
        )

    def _mean_by_meter(self, readings):
        sums = defaultdict(float)
        counts = defaultdict(int)
        for reading in readings:
            sums[reading.meter_id] += reading.watts
            counts[reading.meter_id] += 1
        return {
            meter: sums[meter] / counts[meter] for meter in sums
        }

    def _rank_suspects(self, flagged, readings, baseline_readings):
        current = self._mean_by_meter(readings)
        baseline = self._mean_by_meter(baseline_readings)
        suspects = {}
        for transformer in flagged:
            best_meter, best_drop = None, 0.0
            for meter in self.topology.meters_under(transformer):
                before = baseline.get(meter, 0.0)
                after = current.get(meter, before)
                if before <= 0:
                    continue
                drop = 1.0 - after / before
                if drop > best_drop:
                    best_meter, best_drop = meter, drop
            if best_meter is not None:
                suspects[transformer] = best_meter
        return suspects
