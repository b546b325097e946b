"""A revoked measurement is refused on every path, pinned or not.

One :class:`~repro.sgx.attestation.AttestationService` judges every
quote in the stack, and its one revocation rule -- revoked beats
pinned, until the measurement is trusted again -- must reach each way
in: a client attesting a router, a map/reduce driver attesting its
workers, and a shard re-joining a plane on a resumption ticket, on
every plane that wires the service in.
"""

import pytest

from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce, WORKER_CODE
from repro.cluster import NodeTopology
from repro.errors import AttestationError
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import SHARD_CODE, ShardedScbrRouter
from repro.service import SecureFrontDoor
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.events import Environment
from repro.streams import SecureStreamPlane
from repro.streams.shards import STREAM_SHARD_CODE


def _registered(seed):
    platform = SgxPlatform(seed=seed, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    return platform, attestation


def _word_count(record):
    for word in record.split():
        yield word, 1


def _sum(_key, values):
    return sum(values)


def test_client_pinned_to_a_revoked_router_is_refused():
    platform, attestation = _registered(81)
    router = ShardedScbrRouter(
        platform, lambda i: SgxPlatform(seed=8100 + i, quoting_key_bits=512),
        attestation_service=attestation, shards=1,
    )
    attestation.trust_measurement(router.measurement)
    ScbrClient("alice", router, attestation)
    attestation.revoke_measurement(router.measurement)
    # ScbrClient pins router.measurement; the pin does not outrank the
    # revocation.
    with pytest.raises(AttestationError, match="revoked"):
        ScbrClient("mallory", router, attestation)


def test_map_reduce_refuses_a_revoked_worker():
    platform, attestation = _registered(82)
    attestation.revoke_measurement(WORKER_CODE.measurement)
    job = MapReduceJob(_word_count, _sum, mappers=2, reducers=1)
    with pytest.raises(AttestationError, match="revoked"):
        SecureMapReduce(platform, job, attestation_service=attestation)


def test_retrusted_worker_verifies_again_cold_then_warm():
    """Trusting a revoked measurement again lifts the revocation: the
    first worker re-earns a full verification (the revocation staled
    the cache), its identical siblings hit, and the allowlist path
    accepts the same quote unpinned."""
    platform, attestation = _registered(83)
    job = MapReduceJob(_word_count, _sum, mappers=2, reducers=1)
    SecureMapReduce(platform, job, attestation_service=attestation)
    assert (attestation.hits, attestation.misses) == (2, 1)
    attestation.revoke_measurement(WORKER_CODE.measurement)
    with pytest.raises(AttestationError):
        SecureMapReduce(platform, job, attestation_service=attestation)

    attestation.trust_measurement(WORKER_CODE.measurement)
    engine = SecureMapReduce(platform, job, attestation_service=attestation)
    assert (attestation.hits, attestation.misses) == (4, 2)
    assert engine.run(["a b a"]) == {"'a'": 2, "'b'": 1}
    quote = platform.quote(platform.enclaves[-1], b"mapreduce-join")
    assert attestation.verify(quote)
    assert attestation.hits == 5


def _sharded():
    platform, attestation = _registered(84)
    router = ShardedScbrRouter(
        platform, lambda i: SgxPlatform(seed=8400 + i, quoting_key_bits=512),
        attestation_service=attestation, shards=2,
    )
    return router, attestation, SHARD_CODE.measurement


def _node_bound():
    platform, attestation = _registered(85)
    router = ShardedScbrRouter(
        platform, topology=NodeTopology.build(3, seed=85),
        attestation_service=attestation, shards=2, env=Environment(),
    )
    return router, attestation, SHARD_CODE.measurement


def _streams():
    plane = SecureStreamPlane(NodeTopology.build(3, seed=86), shards=2,
                              seed=86)
    return plane, plane.service, STREAM_SHARD_CODE.measurement


def _front_door():
    door = SecureFrontDoor(Environment(), seed=87)
    return door._ensure_router(), door.attestation, SHARD_CODE.measurement


WIRINGS = {
    "scbr": _sharded,
    "scbr-node-bound": _node_bound,
    "streams": _streams,
    "front-door-scbr": _front_door,
}


@pytest.mark.parametrize("wiring", sorted(WIRINGS))
def test_ticket_after_revocation_falls_back_on_every_wiring(wiring):
    """The revocation is made on the service the driver was handed (or
    built); the coordinator refuses the ticket, and the full handshake
    it falls back to refuses the pinned shard quote too."""
    plane, attestation, measurement = WIRINGS[wiring]()
    provisioner = plane.provisioner
    resumed = provisioner.resumed_joins
    attestation.revoke_measurement(measurement)
    plane.fail_shard(0)
    with pytest.raises(AttestationError, match="revoked"):
        plane.recover_shard(0)
    assert provisioner.resumed_joins == resumed
    assert provisioner.ticket_fallbacks == 1
