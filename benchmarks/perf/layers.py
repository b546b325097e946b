"""Per-layer metrics from one traced run.

Inputs are what ``worker.py`` collected: per-boundary :class:`Stat`
objects for the timed phase and for the whole run, the wall seconds
each layer owned, ``registry.snapshot()`` differences, and the
workload's own counters.  Every value is ``None`` where its layer was
not called or its boundary no longer resolves.

Bring-up costs (key generation, DH, signatures, quotes, enclave loads,
index inserts, topology builds, the quote cache) are taken over the
whole run, set-up included, because on most workloads that is where
they happen; everything else covers the timed phase only.
"""

import re
import statistics

from benchmarks.perf.metrics import LAYERS
from benchmarks.perf.tracing import BOUNDARIES, Stat

MIB = 1024.0 * 1024.0
_DOOR = "repro.service.SecureFrontDoor."
_AEAD = "repro.crypto.AeadKey."
_LABELS = re.compile(r"\{.*\}$")


def flatten(snapshot):
    """Counters and gauges of a registry snapshot, summed over labels."""
    flat = {}
    for kind in ("counters", "gauges"):
        for name, value in snapshot.get(kind, {}).items():
            base = _LABELS.sub("", name)
            flat[base] = flat.get(base, 0) + value
    return flat


def difference(later, earlier):
    return {
        name: value - earlier.get(name, 0) for name, value in later.items()
    }


def merged(stats, *names):
    """One Stat over several boundaries; None if any is unresolved."""
    total = Stat()
    for name in names:
        stat = stats.get(name)
        if stat is None:
            return None
        total.add_hot(stat.calls, stat.total_s, stat.amount)
        total.durations += stat.durations
    return total


def ratio(numerator, denominator, unit=1.0):
    if numerator is None or not denominator:
        return None
    return unit * numerator / denominator


def calls(stat):
    return stat.calls if stat is not None and stat.calls else None


def total_s(stat):
    return stat.total_s if stat is not None and stat.calls else None


def mean(stat, unit):
    return stat.mean(unit) if stat is not None else None


def p50_ms(stat):
    if stat is None or not stat.durations:
        return None
    return 1e3 * statistics.median(stat.durations)


def derive(timed, layer_self, run, wall_s, telemetry_timed, telemetry_run,
           counters):
    """The per-layer metric dict (ratios and host rows are added later)."""
    out = {}
    for layer in LAYERS:
        names = [b[1] for b in BOUNDARIES if b[0] == layer]
        resolved = [timed[n] for n in names if timed.get(n) is not None]
        count = sum(stat.calls for stat in resolved)
        called = count > 0
        out[layer + ".calls"] = count if called else None
        out[layer + ".self_s"] = layer_self[layer] if called else None
        out[layer + ".self_share"] = (
            layer_self[layer] / wall_s if called else None
        )
    out["harness.self_s"] = layer_self["harness"]
    out["harness.self_share"] = layer_self["harness"] / wall_s

    for metric, method in (
        ("upload", "upload_dataset"), ("open", "open_dataset"),
        ("job", "submit_job"), ("subscribe", "subscribe"),
        ("publish", "publish"), ("stream_round", "stream_round"),
    ):
        out["service.%s_p50_ms" % metric] = p50_ms(timed.get(_DOOR + method))
    out["service.audit_entries"] = (
        telemetry_timed.get("service.audit_entries") or None
    )
    out["service.admit_us"] = mean(
        timed.get("repro.service.AdmissionController.admit"), 1e6
    )

    ecall = timed.get("repro.sgx.Enclave.ecall")
    access = timed.get("repro.sgx.SimulatedMemory.access")
    out["sgx.ecalls"] = calls(ecall)
    out["sgx.ecall_self_us"] = ratio(
        ecall and ecall.self_s, calls(ecall), 1e6
    )
    out["sgx.quotes"] = calls(run.get("repro.sgx.SgxPlatform.quote"))
    out["sgx.enclave_loads"] = calls(
        run.get("repro.sgx.SgxPlatform.load_enclave")
    )
    out["sgx.mem_accesses"] = calls(access)
    out["sgx.mem_access_ns"] = mean(access, 1e9)
    out["sgx.mem_accesses_per_s"] = ratio(calls(access), wall_s)
    out["sgx.epc_faults"] = counters.get(
        "epc_faults", telemetry_timed.get("sgx.epc.faults")
    )
    out["sgx.cycles_per_access"] = ratio(
        counters.get("memory_cycles"), calls(access)
    )

    seal = merged(timed, _AEAD + "encrypt", _AEAD + "encrypt_batch")
    unseal = merged(timed, _AEAD + "decrypt", _AEAD + "decrypt_batch")
    record_seal = timed.get(_AEAD + "encrypt")
    out["crypto.seal_mb"] = ratio(calls(seal) and seal.amount, MIB)
    out["crypto.open_mb"] = ratio(calls(unseal) and unseal.amount, MIB)
    out["crypto.seal_mb_per_s"] = ratio(
        out["crypto.seal_mb"], total_s(seal)
    )
    out["crypto.open_mb_per_s"] = ratio(
        out["crypto.open_mb"], total_s(unseal)
    )
    out["crypto.record_seals"] = calls(record_seal)
    out["crypto.record_seal_us"] = mean(record_seal, 1e6)
    keygen = run.get("repro.crypto.RsaKeyPair.generate")
    out["crypto.keygen_calls"] = calls(keygen)
    out["crypto.keygen_s"] = total_s(keygen)
    out["crypto.dh_s"] = total_s(merged(
        run, "repro.crypto.DhKeyPair.generate",
        "repro.crypto.DhKeyPair.shared_key",
    ))
    out["crypto.sign_verify_s"] = total_s(merged(
        run, "repro.crypto.RsaKeyPair.sign",
        "repro.crypto.RsaPublicKey.verify",
    ))
    out["crypto.chunked_passes"] = (
        telemetry_timed.get("crypto.chunked_passes") or None
    )

    matching = merged(
        timed, "repro.scbr.ContainmentIndex.match",
        "repro.scbr.LinearIndex.match",
    )
    out["scbr.publishes"] = calls(
        timed.get("repro.scbr.ShardedScbrRouter.publish")
    )
    out["scbr.match_calls"] = calls(matching)
    out["scbr.match_us"] = mean(matching, 1e6)
    out["scbr.insert_us"] = mean(
        run.get("repro.scbr.ContainmentIndex.insert"), 1e6
    )
    out["scbr.visits_per_match"] = ratio(
        counters.get("visits", telemetry_timed.get("scbr.visits")),
        calls(matching),
    )
    out["scbr.notifications_per_publish"] = ratio(
        counters.get("notifications"), counters.get("publishes")
    )
    hits = telemetry_run.get("provisioning.verify.hits", 0)
    misses = telemetry_run.get("provisioning.verify.misses", 0)
    out["scbr.quote_cache_hit_share"] = ratio(hits, hits + misses)

    jobs = timed.get("repro.bigdata.SecureMapReduce.run")
    out["bigdata.jobs"] = calls(jobs)
    out["bigdata.job_ms"] = mean(jobs, 1e3)
    out["bigdata.map_tasks"] = telemetry_timed.get("bigdata.map_tasks") or None
    out["bigdata.sealed_mb_moved"] = ratio(
        telemetry_timed.get("bigdata.sealed_bytes_moved") or None, MIB
    )

    pumps = timed.get("repro.streams.SecureStreamPlane.pump")
    produce = timed.get("repro.streams.MeterStreamSource.produce")
    out["streams.pumps"] = calls(pumps)
    out["streams.pump_ms"] = mean(pumps, 1e3)
    out["streams.records"] = calls(produce) and produce.amount
    out["streams.committed_firings"] = (
        telemetry_timed.get("streams.committed_firings")
        if calls(pumps) else None
    )

    out["cluster.topology_build_ms"] = mean(
        run.get("repro.cluster.NodeTopology.build"), 1e3
    )
    out["sim.env_run_us"] = mean(timed.get("repro.sim.Environment.run"), 1e6)
    return out
