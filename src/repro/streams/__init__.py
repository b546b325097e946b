"""The sealed, self-stabilising streaming plane (E9).

Sources publish AEAD-sealed meter batches; attested ingest shards run
event-time window operators over them with credit-based backpressure,
deterministic load shedding, exactly-once window emission (sealed
checkpoints + replay + firing-id dedupe), and watermark-driven key-range
auto-scaling.  See DESIGN.md section 12 for the trust boundary.
"""

from repro.streams.plane import ROUND_INTERVAL, SecureStreamPlane, StreamConfig
from repro.streams.routing import KEY_SPACE, KeyRange, RoutingTable, key_slot
from repro.streams.shards import (
    STREAM_COORD_CODE,
    STREAM_SHARD_CODE,
    canonical_header,
    meter_window_aggregate,
)
from repro.streams.shedding import OldestPaneShedPolicy, meter_tenant
from repro.streams.sources import MeterStreamSource

__all__ = [
    "KEY_SPACE",
    "KeyRange",
    "MeterStreamSource",
    "OldestPaneShedPolicy",
    "ROUND_INTERVAL",
    "RoutingTable",
    "STREAM_COORD_CODE",
    "STREAM_SHARD_CODE",
    "SecureStreamPlane",
    "StreamConfig",
    "canonical_header",
    "key_slot",
    "meter_tenant",
    "meter_window_aggregate",
]
