"""E10 -- the multi-tenant secure front door under load and faults.

Five scenarios drive four tenants through the front door's full
request pipeline (admission -> quota -> sealed-plane work -> sealed
audit append -> billing) and measure what the service layer promises:

- **steady state**: the clean baseline; per-tenant p99 request latency
  in virtual ms, every chain verified, books balanced;
- **3x admission overload**: arrivals outrun the token buckets 3:1 --
  shedding is visible (counted + audited), completed-request p99 stays
  flat, and not one request goes unaccounted;
- **quota exhaustion**: a tight sealed-bytes quota turns the tail of
  the upload stream into counted, audited ``quota`` outcomes;
- **tenant chaos isolation**: the noisy tenant's jobs crash mappers at
  15% under seeded chaos while the victim tenant runs the exact
  steady-state workload -- the victim's p99 must not move (the gated
  ``victim_ratio``), and the noisy tenant's books still balance;
- **audit tamper**: the host mutates, truncates, and cross-splices
  stored chains; every tamper must be caught by in-enclave
  verification against the attested head.

Every latency is virtual (derived from the platform cycle clock), all
faults are seeded, and each scenario row carries a digest of the
sealed audit bytes -- so the chaos determinism gate pins the entire
trail byte-for-byte across same-seed runs.

``silent_loss = offered - completed - shed - quota - failed`` must be
zero on every row: the front door may refuse work, it may fail work,
but it may never lose work.
"""

import hashlib

import pytest

from repro.chaos.injector import ChaosConfig, ChaosInjector
from repro.errors import IntegrityError
from repro.service import SecureFrontDoor, TenantQuota
from repro.service.audit import verify_chain
from repro.sim.events import Environment

from benchmarks._harness import report, write_json_sidecar

import sys as _sys
import os as _os

_sys.path.insert(0, _os.path.join(
    _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__)))
))
from tests.service.oracle import FrontDoorOracle  # noqa: E402

SEED = 110
TENANTS = ("victim", "bravo", "carol", "noisy")

E10_HEADER = ("scenario", "tenants", "offered", "completed", "shed",
              "quota", "failed", "recoveries", "p99_ms", "victim_p99_ms",
              "victim_ratio", "verified", "tampers_caught",
              "audit_digest", "silent_loss")


def _map(record):
    return [(record.split("-")[0], 1)]


def _reduce(key, values):
    return sum(values)


def _p99(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _session(smoke, rate=200.0, burst=40.0, inter_arrival=0.02,
             quota=None, chaos=None, noisy_jobs=False):
    """One seeded four-tenant session; returns (door, receipts)."""
    env = Environment()
    door = SecureFrontDoor(
        env, seed=SEED, chaos=chaos,
        default_quota=quota,
    )
    for tenant in TENANTS:
        door.register_tenant(tenant, rate=rate, burst=burst)
    requests = 8 if smoke else 24
    if noisy_jobs:
        door.upload_dataset(
            "noisy", "grist", [b"job-%d" % i for i in range(12)]
        )
        env.run(until=env.now + inter_arrival)
    receipts = {tenant: [] for tenant in TENANTS}
    for index in range(requests):
        for tenant in TENANTS:
            if tenant == "victim":
                receipt = door.upload_dataset(
                    tenant, "d-%d" % index, [b"v" * 64]
                )
            elif tenant == "noisy" and noisy_jobs and index % 3 == 0:
                receipt = door.submit_job(
                    "noisy", "job-%d" % index, "grist", _map, _reduce,
                    mappers=2, reducers=1,
                )
            elif index % 3 == 0:
                receipt = door.subscribe(
                    tenant, "%s-s-%d" % (tenant, index),
                    [("load", ">", index % 5)],
                )
            elif index % 3 == 1:
                receipt = door.publish(tenant, {"load": index % 7})
            else:
                receipt = door.upload_dataset(
                    tenant, "d-%d" % index, [b"b" * 48]
                )
            receipts[tenant].append(receipt)
            env.run(until=env.now + inter_arrival)
    return door, receipts


def _tamper_drills(door, oracle):
    """Host-side tamper attempts; returns how many were caught.

    Each drill attacks a *copy* of the host store and re-verifies
    against the live attested head: one byte flipped mid-chain, one
    suffix truncation, one cross-tenant splice.
    """
    caught = 0
    victim_blobs = list(door.audit_blobs["victim"])
    count, head_hex = door.audit_head("victim")
    head = bytes.fromhex(head_hex)
    key = oracle.audit_key("victim")
    mutated = list(victim_blobs)
    mutated[1] = mutated[1][:5] + bytes([mutated[1][5] ^ 0x80]) \
        + mutated[1][6:]
    spliced = list(victim_blobs)
    spliced[2] = door.audit_blobs["bravo"][2]
    drills = (
        ("mutation", mutated, count),
        ("truncation", victim_blobs[:-2], count - 2),
        ("splice", spliced, count),
    )
    for _name, blobs, claimed in drills:
        try:
            verify_chain(key, "victim", blobs, claimed, head)
        except IntegrityError:
            caught += 1
    return caught, len(drills)


def _row(scenario, door, receipts, steady_victim_p99=None,
         tampers_caught=0):
    """Fold one session into a table row (plus its verified digest)."""
    oracle = FrontDoorOracle(door._root_key.key_bytes)
    totals = oracle.assert_books_balance(door)
    oracle.assert_billing_consistent(door)
    verified = sum(door.verify_audit(t) for t in TENANTS)
    latencies = [
        r.virtual_ms
        for tenant in TENANTS
        for r in receipts[tenant] if r.ok
    ]
    victim_latencies = [r.virtual_ms for r in receipts["victim"] if r.ok]
    victim_p99 = _p99(victim_latencies)
    ratio = (
        victim_p99 / steady_victim_p99
        if steady_victim_p99 else 1.0
    )
    digest = hashlib.sha256(
        b"|".join(
            oracle.audit_digest(door, t).encode() for t in TENANTS
        )
    ).hexdigest()[:12]
    silent_loss = totals["offered"] - (
        totals["completed"] + totals["shed"]
        + totals["quota_rejected"] + totals["failed"]
    )
    return (
        scenario, len(TENANTS), totals["offered"], totals["completed"],
        totals["shed"], totals["quota_rejected"], totals["failed"],
        door.gateway_recoveries, _p99(latencies), victim_p99, ratio,
        verified, tampers_caught, digest, silent_loss,
    )


def run_e10(smoke=False):
    """All scenarios; returns table rows.  ``smoke`` shrinks workloads."""
    steady_door, steady_receipts = _session(smoke)
    steady = _row("steady state", steady_door, steady_receipts)
    steady_victim_p99 = steady[9]

    # Each tenant sees one arrival per 4 * inter_arrival = 0.08 virtual
    # seconds (12.5/s); a 4/s bucket makes the offered load ~3x the
    # admitted rate.
    over_door, over_receipts = _session(smoke, rate=4.0, burst=2.0)
    overload = _row(
        "3x admission overload", over_door, over_receipts,
        steady_victim_p99,
    )

    quota_door, quota_receipts = _session(
        smoke, quota=TenantQuota(sealed_bytes=64 * (4 if smoke else 12)),
    )
    quota = _row(
        "quota exhaustion", quota_door, quota_receipts,
        steady_victim_p99,
    )

    chaos_door, chaos_receipts = _session(
        smoke, noisy_jobs=True,
        chaos=ChaosInjector(
            ChaosConfig(seed=SEED, mapper_crash_rate=0.15)
        ),
    )
    noisy_crashes = sum(
        job["crashes"] for job in chaos_door.jobs["noisy"].values()
    )
    assert noisy_crashes > 0, (
        "the chaos scenario crashed no mappers; isolation is untested"
    )
    isolation = _row(
        "tenant chaos isolation", chaos_door, chaos_receipts,
        steady_victim_p99,
    )

    tamper_door, tamper_receipts = _session(smoke)
    caught, attempted = _tamper_drills(
        tamper_door, FrontDoorOracle(tamper_door._root_key.key_bytes)
    )
    assert caught == attempted, (
        "only %d/%d audit tampers detected" % (caught, attempted)
    )
    tamper = _row(
        "audit tamper", tamper_door, tamper_receipts,
        steady_victim_p99, tampers_caught=caught,
    )
    return [steady, overload, quota, isolation, tamper]


def audit_summary(rows):
    """The machine-readable chain summary for the e10.audit sidecar."""
    return [
        {
            "scenario": row[0],
            "verified_entries": row[11],
            "audit_digest": row[13],
            "tampers_caught": row[12],
            "silent_loss": row[14],
        }
        for row in rows
    ]


@pytest.fixture(scope="module")
def e10_rows():
    return run_e10()


def bench_e10_front_door(e10_rows, benchmark):
    rows = e10_rows
    report(
        "e10_front_door",
        "E10: multi-tenant secure front door -- admission, quotas, "
        "sealed audit, tenant isolation (virtual time)",
        E10_HEADER,
        rows,
        notes=(
            "p99_ms is per-request virtual latency over completed",
            "requests; victim_ratio is the victim tenant's p99 vs the",
            "steady-state baseline; silent_loss = offered - completed",
            "- shed - quota - failed and must be zero on every row",
        ),
    )
    write_json_sidecar("e10_front_door", "audit", audit_summary(rows))
    by_name = {row[0]: row for row in rows}
    for row in rows:
        assert row[14] == 0, "%s lost requests silently" % row[0]
    steady = by_name["steady state"]
    overload = by_name["3x admission overload"]
    quota = by_name["quota exhaustion"]
    isolation = by_name["tenant chaos isolation"]
    tamper = by_name["audit tamper"]
    assert steady[4] == 0 and steady[5] == 0 and steady[6] == 0, (
        "the clean baseline must not shed, quota-reject, or fail"
    )
    assert overload[4] > 0, "the 3x overload must shed visibly"
    assert overload[3] > 0, "overload must still complete work"
    assert quota[5] > 0, "quota exhaustion must reject visibly"
    assert isolation[10] <= 1.10, (
        "the noisy tenant's chaos moved the victim's p99 by >10%%: %r"
        % (isolation[10],)
    )
    assert tamper[12] == 3, "all three tamper drills must be caught"
    # Every scenario's chains verified: registration + one entry per
    # offered request, across all four tenants.
    for row in rows:
        assert row[11] == row[2] + len(TENANTS), (
            "%s: %d verified entries for %d offered" % (
                row[0], row[11], row[2])
        )

    benchmark.pedantic(
        lambda: run_e10(smoke=True), rounds=1, iterations=1,
    )
