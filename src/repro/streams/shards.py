"""Enclave code for the sealed streaming plane.

Two :class:`~repro.sgx.enclave.EnclaveCode` images:

- **stream shard** (:data:`STREAM_SHARD_CODE`): owns one key range of
  the meter stream.  Opens AEAD-sealed ingest batches, runs the window
  operator (``repro.bigdata.streaming``) over them, sheds panes under
  a deterministic policy when the pane budget is exceeded, and emits
  every closed window as a plane-key-sealed *firing* tagged with a
  deterministic firing id -- the exactly-once dedupe handle.  Pane
  state checkpoints as a plane-key-sealed blob the untrusted host can
  store but never read or forge; key ranges hand off between shards as
  sealed extract/load blobs (split, merge, and crash recovery all ride
  the same primitive).

- **stream coordinator** (:data:`STREAM_COORD_CODE`): mints the plane
  key and drives enrollment through the provisioning plane's batched /
  ticket ECALLs (``repro.scbr.provisioning``), wraps the head-end's
  ingest key to each shard, and acts as the egress gateway that opens
  sealed firings for the (trusted) analytics consumer.

Trust model, in one line: sources and enclaves see plaintext readings;
the driver, queues, checkpoints, and the firing log see only
ciphertext, counts, slots, and timestamps.

Firing ids are HKDF-derived from the plane key over the window
coordinates ``(start, end, key)`` -- deterministic within a plane (so
a replayed closing reproduces the id and the host-side committer can
dedupe) and pseudonymous to the host (the id reveals the key only to
plane members).
"""

import json

from repro.bigdata.streaming import SlidingWindow, TumblingWindow
from repro.crypto.aead import AeadKey
from repro.crypto.chunked import serial_seal_cycles
from repro.crypto.kdf import hkdf
from repro.errors import AttestationError, ConfigurationError, IntegrityError
from repro.scbr.provisioning import (
    coord_enroll_batch,
    coord_resume,
    coord_rotate,
    shard_join_complete_batch,
    shard_join_offer2,
    shard_rekey,
    shard_resume_complete,
    shard_resume_offer,
)
from repro.scbr.sharding import plane_telemetry_export
from repro.sgx.enclave import EnclaveCode
from repro.streams.routing import KeyRange, key_slot
from repro.streams.shedding import OldestPaneShedPolicy, meter_tenant
from repro.telemetry import EnclaveTelemetry

# Cycle cost of parsing + windowing one reading (JSON decode, key hash,
# pane append); sealing is priced by the shared serial_seal_cycles.
INGEST_CYCLES_PER_RECORD = 1_800

_AAD_BATCH = b"streams|batch|"
_AAD_FIRING = b"streams|firing|"
_AAD_CHECKPOINT = b"streams|checkpoint|"
_AAD_RANGE = b"streams|range|"
_AAD_INGEST_KEY = b"streams|ingest-key|"

_FIRING_ID_INFO = b"streams|firing-id"


def canonical_header(header):
    """The byte form of a batch header bound into its AAD."""
    return json.dumps(header, sort_keys=True).encode("utf-8")


def meter_window_aggregate(records):
    """The plane's window aggregate: reading count + summed watts.

    Shared with the pure-python oracle, so "oracle-equal" compares the
    full distributed machinery (sealing, shards, crashes, replay,
    handoff) against one in-process reduction of the same records.
    """
    return {
        "n": len(records),
        "w_sum": sum(record["w"] for record in records),
    }


def _plane_key(ctx):
    key = ctx.state.get("plane_key")
    if key is None:
        raise AttestationError("enclave has not joined the stream plane")
    return key


def _firing_id(plane_key, window_start, window_end, key):
    material = json.dumps(
        [window_start, window_end, key], sort_keys=True
    ).encode("utf-8")
    return hkdf(
        plane_key.key_bytes, _FIRING_ID_INFO + b"|" + material, length=16
    ).hex()


def _build_operator(config, registry=None):
    kind = config.get("kind", "tumbling")
    size = config["size"]
    lateness = config.get("lateness", 0.0)
    key_fn = lambda record: record["meter"]  # noqa: E731
    if kind == "tumbling":
        return TumblingWindow(
            size, meter_window_aggregate, key_fn=key_fn,
            lateness=lateness, registry=registry,
        )
    if kind == "sliding":
        return SlidingWindow(
            size, config["slide"], meter_window_aggregate, key_fn=key_fn,
            lateness=lateness, registry=registry,
        )
    raise ConfigurationError("unknown window kind %r" % (kind,))


# --- shard-side ECALLs -------------------------------------------------

def stream_setup(ctx, shard_id, window_config, key_range,
                 pane_budget=None, attestation=None,
                 coordinator_measurement=None, telemetry_key=None):
    """ECALL: initialise an empty stream shard owning ``key_range``.

    ``window_config`` is ``{"kind", "size", "slide"?, "lateness"?}``;
    ``pane_budget`` (optional) arms load shedding.  ``attestation`` /
    ``coordinator_measurement`` pin the coordinator for the join
    handshake, exactly as in the SCBR plane.
    """
    ctx.state["shard_id"] = shard_id
    ctx.state["attestation"] = attestation
    ctx.state["coordinator_measurement"] = coordinator_measurement
    if telemetry_key is not None:
        ctx.state["telemetry"] = EnclaveTelemetry(
            telemetry_key, "stream-shard-%d" % shard_id
        )
    telemetry = ctx.state.get("telemetry")
    registry = telemetry.registry if telemetry is not None else None
    ctx.state["window_config"] = dict(window_config)
    ctx.state["operator"] = _build_operator(window_config, registry)
    ctx.state["range"] = KeyRange.from_json(key_range).to_json()
    ctx.state["pane_budget"] = pane_budget
    ctx.state["shed_policy"] = OldestPaneShedPolicy(meter_tenant)
    ctx.state["version"] = 0
    ctx.state["entries"] = 0      # log entries applied since checkpoint
    return True


def stream_install_ingest_key(ctx, wrapped):
    """ECALL: install the head-end ingest key (plane-key-wrapped)."""
    aad = _AAD_INGEST_KEY + str(ctx.state["shard_id"]).encode("ascii")
    ctx.state["ingest_key"] = AeadKey(
        _plane_key(ctx).open(wrapped, aad, what="wrapped ingest key")
    )
    return True


def _emit_firings(ctx, closed, operator):
    """Seal closed windows and shed tombstones into firing frames.

    Every frame's metadata carries the operator's cumulative shed/late
    counters -- shedding is visible in the output stream itself, not
    only in side-channel stats.
    """
    plane_key = _plane_key(ctx)
    firings = []
    frames = [
        ("window", start, end, key, result)
        for start, end, key, result in closed
    ] + [
        ("shed", start, end, key, {"dropped": dropped})
        for start, end, key, dropped in operator.drain_shed_tombstones()
    ]
    frames.sort(key=lambda frame: (frame[1], repr(frame[3]), frame[0]))
    for kind, start, end, key, result in frames:
        firing_id = _firing_id(plane_key, start, end, key)
        payload = json.dumps({
            "kind": kind,
            "window_start": start,
            "window_end": end,
            "key": key,
            "result": result,
            "meta": {
                "shard": ctx.state["shard_id"],
                "shed_records": operator.shed_records,
                "late_records": operator.late_records,
            },
        }, sort_keys=True).encode("utf-8")
        ctx.compute(serial_seal_cycles(len(payload)))
        blob = plane_key.seal(
            payload, _AAD_FIRING + firing_id.encode("ascii")
        )
        firings.append((firing_id, blob))
    return firings


def _ingest_result(ctx, firings, records):
    operator = ctx.state["operator"]
    return {
        "firings": firings,
        "records": records,
        "late_records": operator.late_records,
        "shed_records": operator.shed_records,
        "open_panes": operator.open_windows,
        "watermark": operator.watermark,
    }


def stream_ingest(ctx, header, blob):
    """ECALL: open one sealed batch and window its readings.

    The header rides as AAD, so the host cannot re-label a batch's
    source, sequence, count, or target shard without failing the AEAD
    open.  Records routed outside this shard's key range fail closed:
    a misrouting host cannot make a reading count twice or vanish.
    """
    ingest_key = ctx.state.get("ingest_key")
    if ingest_key is None:
        raise AttestationError("shard has no ingest key installed")
    if header["shard"] != ctx.state["shard_id"]:
        raise IntegrityError(
            "batch for shard %r delivered to shard %r"
            % (header["shard"], ctx.state["shard_id"])
        )
    aad = _AAD_BATCH + canonical_header(header)
    payloads = ingest_key.open_records(blob, aad, what="ingest batch")
    if len(payloads) != header["count"]:
        raise IntegrityError(
            "batch count mismatch: header says %d, body holds %d"
            % (header["count"], len(payloads))
        )
    operator = ctx.state["operator"]
    owned = KeyRange.from_json(ctx.state["range"])
    closed = []
    for payload in payloads:
        record = json.loads(payload.decode("utf-8"))
        if not owned.contains(key_slot(record["meter"])):
            raise IntegrityError(
                "record for slot %d is outside this shard's range [%d, %d)"
                % (key_slot(record["meter"]), owned.lo, owned.hi)
            )
        ctx.compute(INGEST_CYCLES_PER_RECORD)
        closed.extend(operator.ingest(record["t"], record))
    budget = ctx.state.get("pane_budget")
    if budget is not None and operator.open_windows > budget:
        ctx.state["shed_policy"].shed_to_budget(operator, budget)
    ctx.state["entries"] += 1
    firings = _emit_firings(ctx, closed, operator)
    return _ingest_result(ctx, firings, len(payloads))


def stream_punctuate(ctx, timestamp):
    """ECALL: advance the watermark without records (a punctuation).

    Closes -- and evicts -- every ripe pane, including panes of keys
    that went quiet; the plane punctuates each round with the minimum
    released-through time across sources, so backpressure holding
    batches upstream also holds the watermark (a throttled reading can
    never become late).
    """
    operator = ctx.state["operator"]
    closed = operator.advance_watermark(timestamp)
    ctx.state["entries"] += 1
    firings = _emit_firings(ctx, closed, operator)
    return _ingest_result(ctx, firings, 0)


def stream_checkpoint(ctx):
    """ECALL: seal the full pane state under the plane key.

    The blob binds the shard id, a monotonic version, and the owned
    range; a host replaying it into the wrong shard (or a shard whose
    range moved on) fails closed on restore.  Checkpoints truncate the
    replay log: recovery is restore-latest + replay-since.
    """
    ctx.state["version"] += 1
    operator = ctx.state["operator"]
    state = {
        "shard": ctx.state["shard_id"],
        "version": ctx.state["version"],
        "range": ctx.state["range"],
        "operator": operator.state_dict(),
    }
    payload = json.dumps(state, sort_keys=True).encode("utf-8")
    aad = _AAD_CHECKPOINT + str(ctx.state["shard_id"]).encode("ascii")
    ctx.compute(serial_seal_cycles(len(payload)))
    blob = _plane_key(ctx).seal_records([payload], aad)
    ctx.state["entries"] = 0
    return {"version": ctx.state["version"], "blob": blob}


def stream_restore(ctx, blob):
    """ECALL: restore pane state from a sealed checkpoint.

    Only an empty shard restores (a live one would fork history), and
    only its own checkpoints open -- the AAD pins the shard id and the
    sealed payload repeats it, so a foreign or re-labelled blob fails
    closed.
    """
    operator = ctx.state["operator"]
    if operator.open_windows or ctx.state["entries"]:
        raise IntegrityError(
            "refusing to restore into a non-empty stream shard"
        )
    aad = _AAD_CHECKPOINT + str(ctx.state["shard_id"]).encode("ascii")
    payload = _plane_key(ctx).open_record(
        blob, aad, what="stream checkpoint"
    )
    state = json.loads(payload.decode("utf-8"))
    if state["shard"] != ctx.state["shard_id"]:
        raise IntegrityError(
            "checkpoint for shard %r offered to shard %r"
            % (state["shard"], ctx.state["shard_id"])
        )
    operator.load_state_dict(state["operator"])
    ctx.state["range"] = state["range"]
    ctx.state["version"] = state["version"]
    ctx.state["entries"] = 0
    return {
        "version": state["version"],
        "watermark": operator.watermark,
        "open_panes": operator.open_windows,
    }


def stream_extract_range(ctx, move_range, to_shard):
    """ECALL: evacuate ``move_range``'s panes for a staged handoff.

    ``move_range`` must be a prefix/suffix slice of (or the whole of)
    the owned range; what remains stays owned here.  When the whole
    range moves (a merge retiring this shard), the cumulative shed and
    late counters ride along so plane-wide accounting stays exact.
    Returns the sealed handoff blob; the host stores and relays it but
    cannot read a single pane.
    """
    owned = KeyRange.from_json(ctx.state["range"])
    moved = KeyRange.from_json(move_range)
    if not (owned.lo <= moved.lo and moved.hi <= owned.hi):
        raise ConfigurationError(
            "cannot extract [%d, %d): shard owns [%d, %d)"
            % (moved.lo, moved.hi, owned.lo, owned.hi)
        )
    if moved.lo != owned.lo and moved.hi != owned.hi:
        raise ConfigurationError(
            "extracted range must align with an edge of the owned range"
        )
    operator = ctx.state["operator"]
    part = operator.extract(
        lambda key: moved.contains(key_slot(key))
    )
    retiring = moved.width == owned.width
    payload = {
        "from": ctx.state["shard_id"],
        "to": to_shard,
        "range": moved.to_json(),
        "part": part,
    }
    if retiring:
        payload["counters"] = {
            "shed_records": operator.shed_records,
            "late_records": operator.late_records,
        }
    else:
        if moved.lo == owned.lo:
            remainder = KeyRange(moved.hi, owned.hi)
        else:
            remainder = KeyRange(owned.lo, moved.lo)
        ctx.state["range"] = remainder.to_json()
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    aad = _AAD_RANGE + (
        "%d|%d" % (ctx.state["shard_id"], to_shard)
    ).encode("ascii")
    ctx.compute(serial_seal_cycles(len(body)))
    return _plane_key(ctx).seal_records([body], aad)


def stream_load_range(ctx, from_shard, blob):
    """ECALL: adopt a sealed key-range handoff.

    The AAD pins donor and recipient, the payload repeats them, and the
    adopted range must either equal the configured range (a fresh split
    target) or extend the owned one edge-adjacently (a merge) -- a host
    replaying the blob elsewhere, or twice, fails closed (adopting
    duplicate panes raises).
    """
    aad = _AAD_RANGE + (
        "%d|%d" % (from_shard, ctx.state["shard_id"])
    ).encode("ascii")
    payload = _plane_key(ctx).open_record(blob, aad, what="range handoff")
    state = json.loads(payload.decode("utf-8"))
    if state["to"] != ctx.state["shard_id"] or state["from"] != from_shard:
        raise IntegrityError("range handoff addressed to another shard")
    owned = KeyRange.from_json(ctx.state["range"])
    moved = KeyRange.from_json(state["range"])
    if (moved.lo, moved.hi) != (owned.lo, owned.hi):
        ctx.state["range"] = owned.merge(moved).to_json()
    operator = ctx.state["operator"]
    operator.adopt(state["part"])
    counters = state.get("counters")
    if counters is not None:
        operator.shed_records += counters["shed_records"]
        operator.late_records += counters["late_records"]
    return {
        "range": ctx.state["range"],
        "open_panes": operator.open_windows,
        "watermark": operator.watermark,
    }


def stream_flush(ctx):
    """ECALL: close every open window (end of stream)."""
    operator = ctx.state["operator"]
    closed = operator.flush()
    ctx.state["entries"] += 1
    firings = _emit_firings(ctx, closed, operator)
    return _ingest_result(ctx, firings, 0)


def stream_stats(ctx):
    """ECALL: public health numbers (counts and slots only)."""
    operator = ctx.state["operator"]
    return {
        "shard": ctx.state["shard_id"],
        "range": ctx.state["range"],
        "open_panes": operator.open_windows,
        "buffered_records": sum(
            count for _start, _key, count in operator.open_panes()
        ),
        "watermark": operator.watermark,
        "late_records": operator.late_records,
        "shed_records": operator.shed_records,
        "version": ctx.state["version"],
        "entries": ctx.state["entries"],
        "resident_bytes": ctx.memory.resident_bytes,
    }


STREAM_SHARD_ENTRY_POINTS = {
    "setup": stream_setup,
    "join_offer2": shard_join_offer2,
    "join_complete_batch": shard_join_complete_batch,
    "resume_offer": shard_resume_offer,
    "resume_complete": shard_resume_complete,
    "rekey": shard_rekey,
    "install_ingest_key": stream_install_ingest_key,
    "ingest": stream_ingest,
    "punctuate": stream_punctuate,
    "checkpoint": stream_checkpoint,
    "restore": stream_restore,
    "extract_range": stream_extract_range,
    "load_range": stream_load_range,
    "flush": stream_flush,
    "stats": stream_stats,
    "telemetry_export": plane_telemetry_export,
}

STREAM_SHARD_CODE = EnclaveCode("stream-shard", STREAM_SHARD_ENTRY_POINTS)


# --- coordinator-side ECALLs ------------------------------------------

def stream_coord_setup(ctx, ingest_key_bytes, attestation=None,
                       shard_measurement=None, telemetry_key=None):
    """ECALL: initialise the stream coordinator.

    Mints the plane key in-enclave and installs the head-end's ingest
    key (provisioned out of band by the utility, which trusts its own
    metering gateway).  ``attestation`` + ``shard_measurement`` pin
    which shard code may join, exactly as in the SCBR plane.
    """
    ctx.state["plane_key"] = AeadKey.generate()
    ctx.state["ingest_key"] = AeadKey(ingest_key_bytes)
    ctx.state["attestation"] = attestation
    ctx.state["shard_measurement"] = shard_measurement
    ctx.state["enrolled"] = set()
    ctx.state["plane_epoch"] = 1
    ctx.state["ticket_key"] = AeadKey.generate()
    ctx.state["resumption"] = {}
    ctx.state["shard_platform"] = {}
    if telemetry_key is not None:
        ctx.state["telemetry"] = EnclaveTelemetry(
            telemetry_key, "stream-coord"
        )
    return True


def stream_coord_wrap_ingest_key(ctx, shard_id):
    """ECALL: wrap the ingest key for one enrolled shard."""
    aad = _AAD_INGEST_KEY + str(shard_id).encode("ascii")
    return _plane_key(ctx).seal(ctx.state["ingest_key"].key_bytes, aad)


def stream_coord_open_firing(ctx, firing_id, blob):
    """ECALL: open one sealed firing (the egress gateway).

    In a deployment this would re-seal to the analytics consumer's
    key; here it returns the plaintext frame so benchmarks and tests
    (standing in for that consumer) can check oracle equality.  The
    AAD binds the firing id, so a host swapping ids to confuse the
    dedupe ledger fails closed.
    """
    payload = _plane_key(ctx).open(
        blob, _AAD_FIRING + firing_id.encode("ascii"), what="firing"
    )
    return json.loads(payload.decode("utf-8"))


STREAM_COORD_ENTRY_POINTS = {
    "setup": stream_coord_setup,
    "enroll_batch": coord_enroll_batch,
    "resume": coord_resume,
    "rotate": coord_rotate,
    "wrap_ingest_key": stream_coord_wrap_ingest_key,
    "open_firing": stream_coord_open_firing,
    "telemetry_export": plane_telemetry_export,
}

STREAM_COORD_CODE = EnclaveCode(
    "stream-coordinator", STREAM_COORD_ENTRY_POINTS
)
