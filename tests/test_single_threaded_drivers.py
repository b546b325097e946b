"""The plane drivers start no host thread, the seal paths no process.

Shards and workers are concurrent in the cycle model (separate clocks,
slowest-machine latency); the host loops that drive them are serial,
and every sealed byte is produced inside the call that was asked for it.
Nothing under ``src/repro`` imports a concurrency module at all, which is
what lets the clock, the metrics registry, the chaos log and the
map/reduce recovery books be plain unlocked state.
"""

import multiprocessing.process
import os
import subprocess
import threading

import pytest

from repro.bigdata.kvstore import SecureTable
from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce
from repro.bigdata.transfer import BulkTransfer, SimulatedNetwork
from repro.crypto.aead import AeadKey, CHUNKED_MAGIC
from repro.crypto.primitives import DeterministicRandomSource
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import ShardedMatchingPlane, ShardedScbrRouter
from repro.scone.fs_shield import ProtectedVolume, UntrustedStore
from repro.service import SecureFrontDoor
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.events import Environment
from tests.source_imports import imports_outside


CONCURRENCY_MODULES = {"threading", "concurrent", "multiprocessing"}


def test_no_module_under_src_imports_a_concurrency_module():
    offenders = imports_outside(lambda name: name not in CONCURRENCY_MODULES)
    assert not offenders, offenders


@pytest.fixture()
def no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError("a plane driver started a host thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.fixture()
def no_processes(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a seal path started a host process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def _subscription(subscription_id, bound, subscriber):
    return Subscription(
        subscription_id, [Constraint("price", Operator.LE, bound)], subscriber
    )


def test_sharded_router_publishes_without_threads(no_threads):
    platform = SgxPlatform(seed=41, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = ShardedScbrRouter(
        platform,
        lambda i: SgxPlatform(seed=100 + i, quoting_key_bits=512),
        attestation_service=attestation,
        shards=3,
    )
    attestation.trust_measurement(router.measurement)
    alice = ScbrClient("alice", router, attestation)
    for index, bound in enumerate((50, 80, 20)):
        alice.subscribe(_subscription("a%d" % index, bound, "alice"))
    assert len({id(shard.platform) for shard in router.shards}) == 3
    notifications = alice.publish(Publication({"price": 30}))
    assert len(notifications) == 1
    _pub, matched = alice.open_notification_detail(notifications[0])
    assert set(matched) == {"a0", "a1"}


def test_matching_plane_matches_without_threads(no_threads):
    plane = ShardedMatchingPlane(initial_shards=3)
    for index, bound in enumerate((50, 80, 20, 60)):
        plane.insert(_subscription("s%d" % index, bound, "alice"))
    assert plane.shard_count == 3
    assert plane.match(Publication({"price": 55})) == {"s1", "s3"}
    assert plane.last_match_cycles > 0


def test_mapreduce_runs_without_threads(no_threads):
    def word_map(record):
        return [(word, 1) for word in record.split()]

    def count_reduce(_key, values):
        return sum(values)

    job = MapReduceJob(word_map, count_reduce, mappers=4, reducers=2)
    engine = SecureMapReduce(SgxPlatform(seed=17, quoting_key_bits=512), job)
    result = engine.run(["a b", "b c", "c a", "a a"])
    assert result == {"'a'": 4, "'b'": 2, "'c'": 2}
    assert all(mapper.ecall_count == 2 for mapper in engine._mappers)
    assert all(reducer.ecall_count == 2 for reducer in engine._reducers)


def test_large_seals_run_without_processes(no_threads, no_processes):
    source = DeterministicRandomSource(15)

    door = SecureFrontDoor(Environment(), seed=51)
    door.register_tenant("acme")
    records = [source.bytes(4096) for _ in range(256)]
    assert door.upload_dataset("acme", "big", records).ok
    assert door.datasets["acme"]["big"][:3] == CHUNKED_MAGIC
    assert door.open_dataset("acme", "big") == records

    export_key = AeadKey(source.bytes(32))
    table = SecureTable(ProtectedVolume(UntrustedStore()), "t")
    table.put_many([("r%d" % i, source.bytes(64 * 1024)) for i in range(5)])
    blob = table.export_sealed(export_key)
    assert blob[:3] == CHUNKED_MAGIC
    imported = SecureTable.import_sealed(
        ProtectedVolume(UntrustedStore()), "t", export_key, blob
    )
    assert imported.get("r4") == table.get("r4")

    payload = source.bytes(1024 * 1024)
    transfer = BulkTransfer(AeadKey(source.bytes(32)), compress=False)
    frames, _stats = transfer.send(payload, SimulatedNetwork())
    assert frames[0][:3] == CHUNKED_MAGIC
    assert transfer.receive(frames) == payload
