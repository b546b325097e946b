"""The plane drivers start no host thread.

Shards and workers are concurrent in the cycle model (separate clocks,
slowest-machine latency); the host loops that drive them are serial.
"""

import threading

import pytest

from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import ShardedMatchingPlane, ShardedScbrRouter
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform


@pytest.fixture()
def no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError("a plane driver started a host thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)


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
