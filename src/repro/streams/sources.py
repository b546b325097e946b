"""Head-end stream sources: meter fleets publishing sealed batches.

A :class:`MeterStreamSource` models one utility head-end collecting a
slice of a :class:`~repro.smartgrid.meters.SmartMeterFleet` and
publishing its readings into the plane as AEAD-sealed record frames
(:meth:`~repro.crypto.aead.AeadKey.seal_records`), one frame per target
shard, routed by the public key-slot hash.

Backpressure is credit-based and end-to-end: a source releases a batch
only when the target shard's bounded queue has a free slot (a credit).
When credits run out the source *throttles* -- readings accumulate in
its backlog (the field network's buffer) instead of overrunning enclave
memory -- and its ``released_through`` event-time mark stops advancing,
which holds the plane's watermark back so a throttled reading can never
be judged late.  Release is strictly production-ordered: one blocked
target blocks the whole source (head-of-line), which is exactly what
keeps ``released_through`` monotonic.
"""

from collections import deque

from repro.crypto.aead import AeadKey
from repro.streams.shards import _AAD_BATCH, canonical_header


class MeterStreamSource:
    """One head-end publisher for a subset of the fleet's meters."""

    def __init__(self, source_id, fleet, meters, ingest_key_bytes,
                 batch_records=32):
        self.source_id = source_id
        self.fleet = fleet
        self.meters = list(meters)
        self.ingest_key = AeadKey(ingest_key_bytes)
        self.batch_records = batch_records
        self.backlog = deque()
        self.sequence = 0
        self.produced = 0
        self.released = 0
        self.throttle_events = 0
        # Highest event time actually handed to the plane; the plane's
        # watermark punctuation is the minimum of these across sources.
        self.released_through = float("-inf")

    def produce(self, start, end):
        """Generate readings for ``[start, end)`` into the backlog.

        Time-major order (all meters at t, then t+interval, ...), so
        event time is non-decreasing along the backlog and
        ``released_through`` stays monotonic.
        """
        count = 0
        timestamp = start
        while timestamp < end:
            for meter in self.meters:
                record = self.fleet.reading(meter, timestamp).to_record()
                self.backlog.append(record)
                count += 1
            timestamp += self.fleet.interval
        self.produced += count
        return count

    def _next_chunk(self):
        take = min(self.batch_records, len(self.backlog))
        return [self.backlog[index] for index in range(take)]

    def release(self, plane):
        """Publish backlogged readings while credits allow.

        Each chunk is partitioned by the plane's current routing table
        into one sealed batch per target shard; if *any* target lacks a
        credit the source stops for this round (order preservation) and
        counts a throttle event.  Returns records released.
        """
        sent = 0
        while self.backlog:
            chunk = self._next_chunk()
            groups = {}
            for record in chunk:
                groups.setdefault(
                    plane.owner_of(record["meter"]), []
                ).append(record)
            if any(
                plane.credits(shard_id) < 1 for shard_id in groups
            ):
                self.throttle_events += 1
                break
            for _record in chunk:
                self.backlog.popleft()
            for shard_id in sorted(groups):
                records = groups[shard_id]
                header = {
                    "source": self.source_id,
                    "seq": self.sequence,
                    "shard": shard_id,
                    "count": len(records),
                    "max_ts": max(record["t"] for record in records),
                }
                self.sequence += 1
                payloads = [
                    canonical_header(record) for record in records
                ]
                blob = self.ingest_key.seal_records(
                    payloads, _AAD_BATCH + canonical_header(header)
                )
                plane.enqueue(shard_id, header, blob)
            self.released += len(chunk)
            self.released_through = max(
                self.released_through,
                max(record["t"] for record in chunk),
            )
            sent += len(chunk)
        return sent

    @property
    def backlog_depth(self):
        return len(self.backlog)
