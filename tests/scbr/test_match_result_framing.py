"""A shard's match result travels in the records framing and fails closed.

``shard_match`` seals its answer as a one-record ``seal_records`` batch
under the plane key and ``_AAD_MATCHED``; ``coord_finalize`` opens
exactly that.  Driven through a live two-shard plane with the untrusted
host rewriting shard 0's answer: every flipped byte, the same payload in
the single-payload framing, another kind of plane batch and a batch of
two records are each refused as ``IntegrityError`` naming the shard
match result -- and none leaves the publication parked.
"""

import pytest

from repro.errors import IntegrityError
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import _AAD_MATCHED
from repro.sgx.enclave import EnclaveContext

from tests.scbr.test_shard_recovery import _publication, make_plane, sub


@pytest.fixture(scope="module")
def plane():
    router, attestation = make_plane(seed=71)
    alice = ScbrClient("alice", router, attestation)
    publisher = ScbrClient("publisher", router, attestation)
    for position in range(6):
        alice.subscribe(sub("s%d" % position, 10 * position))
    assert all(
        shard.enclave.ecall("stats")["subscriptions"]
        for shard in router.shards
    )
    return router, publisher


def coordinator_state(router):
    return EnclaveContext(router.coordinator).state


def publish_with(router, publisher, rewrite):
    """One publish with the host passing shard 0's answer to ``rewrite``."""
    enclave = router.shards[0].enclave
    real = enclave.ecall

    def ecall(entry_point, *args, **kwargs):
        result = real(entry_point, *args, **kwargs)
        if entry_point == "match":
            return rewrite(result[0]), result[1]
        return result

    enclave.ecall = ecall
    try:
        return router.publish_routed(_publication(publisher, {"x": 25}))
    finally:
        del enclave.ecall


def refused(router, publisher, rewrite):
    with pytest.raises(IntegrityError, match="shard match result"):
        publish_with(router, publisher, rewrite)
    assert not coordinator_state(router)["pending_publications"]


def test_an_untouched_answer_is_one_record_under_the_matched_aad(plane):
    router, publisher = plane
    seen = []
    routed = publish_with(
        router, publisher, lambda blob: seen.append(blob) or blob
    )
    assert [subscriber for subscriber, _envelope in routed] == ["alice"]
    plane_key = coordinator_state(router)["plane_key"]
    (payload,) = plane_key.open_records(seen[0], _AAD_MATCHED)
    assert b'"shard"' in payload and b'"pairs"' in payload


def test_every_single_byte_flip_is_refused(plane):
    router, publisher = plane
    lengths = []
    publish_with(router, publisher, lambda b: lengths.append(len(b)) or b)
    for position in range(lengths[0]):
        def flip(blob, position=position):
            assert len(blob) == lengths[0]  # fresh nonce, same size
            return (blob[:position] + bytes([blob[position] ^ 0x01])
                    + blob[position + 1:])
        refused(router, publisher, flip)


def test_other_framings_and_other_batches_are_refused(plane):
    router, publisher = plane
    plane_key = coordinator_state(router)["plane_key"]

    def payload_of(blob):
        return plane_key.open_record(blob, _AAD_MATCHED)

    # The payload in the single-payload framing, same key, same AAD.
    refused(router, publisher,
            lambda blob: plane_key.seal(payload_of(blob), _AAD_MATCHED))
    # A plane batch of another kind: shard 0's own snapshot.
    snapshot = router.shards[0].enclave.ecall("snapshot")[1]
    refused(router, publisher, lambda blob: snapshot)
    # Two records under the right AAD; zero likewise.
    refused(router, publisher, lambda blob: plane_key.seal_records(
        [payload_of(blob)] * 2, _AAD_MATCHED))
    refused(router, publisher,
            lambda blob: plane_key.seal_records([], _AAD_MATCHED))
    # ... and the plane still answers.
    routed = publish_with(router, publisher, lambda blob: blob)
    assert [subscriber for subscriber, _envelope in routed] == ["alice"]
    router.check_invariants()


def test_one_answer_offered_twice_covers_one_partition(plane):
    router, publisher = plane
    token, sealed = router.coordinator.ecall(
        "ingest", _publication(publisher, {"x": 25})
    )
    blob, _visits = router.shards[0].enclave.ecall("match", sealed)
    _routed, missing = router.coordinator.ecall(
        "finalize", token, [blob, blob]
    )
    assert missing == [router.shards[1].shard_id]
