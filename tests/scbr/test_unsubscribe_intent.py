"""An unsubscribe is the client's sealed intent, never the host's word.

The host relays every unsubscribe, and it knows the plaintext ids it
used to pass: which subscription, and whose.  Those ids alone must
remove nothing.  The client seals the withdrawal under its channel key;
the coordinator opens it and re-seals ``{id, client}`` under the plane
key, with the client being the sender the channel authenticated; the
home shard takes only that blob.  Every forgery below goes through the
real entry points and must fail closed with nothing changed.
"""

import json

import pytest

from repro.errors import ConfigurationError, IntegrityError
from repro.scbr.messages import EncryptedEnvelope
from repro.scbr.router import ScbrClient, ScbrRouter
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform

from tests.scbr.test_shard_recovery import (
    _matched_ids,
    _publication,
    make_plane,
    sub,
)

VICTIMS = ["s3", "s4", "s5", "s6", "s7"]


def _plaintext_intent(subscription_id, client_id):
    """Everything the host knows about an unsubscribe, as bytes."""
    return json.dumps(
        {"id": subscription_id, "client": client_id}
    ).encode("utf-8")


def _subscribed_plane():
    router, attestation = make_plane(seed=47)
    alice = ScbrClient("alice", router, attestation)
    publisher = ScbrClient("publisher", router, attestation)
    for position in range(8):
        alice.subscribe(sub("s%d" % position, 10 * position))
    return router, alice, publisher


def _stats(router):
    return [shard.enclave.ecall("stats") for shard in router.shards]


def test_host_cannot_remove_a_subscription_by_naming_it():
    router, alice, publisher = _subscribed_plane()
    before = _stats(router)
    for subscription_id in VICTIMS:
        shard = router._home[subscription_id]
        with pytest.raises(IntegrityError):
            shard.enclave.ecall(
                "remove", _plaintext_intent(subscription_id, "alice")
            )
    assert _stats(router) == before
    routed = router.publish_routed(_publication(publisher, {"x": 25}))
    assert _matched_ids(alice, routed) == VICTIMS
    router.check_invariants()


def test_a_relayed_removal_cannot_be_replayed_or_read():
    router, alice, publisher = _subscribed_plane()
    alice.unsubscribe("s7")
    logged = [
        entry for member in router.shards for entry in member.log
        if entry[0] == "remove"
    ]
    assert len(logged) == 1
    (_kind, blob), = logged
    # The host keeps the removal in the replay log as plane ciphertext.
    assert isinstance(blob, bytes)
    assert b'"s7"' not in blob
    before = _stats(router)
    for member in router.shards:
        # Replayed anywhere, it names s7 only: already gone everywhere.
        with pytest.raises(ConfigurationError):
            member.enclave.ecall("remove", blob)
    assert _stats(router) == before
    routed = router.publish_routed(_publication(publisher, {"x": 65}))
    assert _matched_ids(alice, routed) == []
    router.check_invariants()


def test_another_client_cannot_withdraw_alices_subscription():
    router, alice, publisher = _subscribed_plane()
    mallory = ScbrClient("mallory", router, router.attestation_service)
    with pytest.raises(IntegrityError):
        mallory.unsubscribe("s5")
    # An envelope claiming alice as its sender, sealed under mallory's
    # key, does not open at the coordinator.
    forged = EncryptedEnvelope.seal(
        mallory.key, "alice", "unsubscribe", b"s5"
    )
    with pytest.raises(IntegrityError):
        router.unsubscribe(forged)
    routed = router.publish_routed(_publication(publisher, {"x": 25}))
    assert _matched_ids(alice, routed) == VICTIMS


def test_the_monolithic_router_opens_the_intent_itself():
    platform = SgxPlatform(seed=48, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = ScbrRouter(platform)
    attestation.trust_measurement(router.measurement)
    alice = ScbrClient("alice", router, attestation)
    alice.subscribe(sub("s1", 10))
    forged = EncryptedEnvelope("alice", "unsubscribe", b"s1")
    with pytest.raises(IntegrityError):
        router.enclave.ecall("unsubscribe", forged)
    assert router.stats()["subscriptions"] == 1
    alice.unsubscribe("s1")
    assert router.stats()["subscriptions"] == 0
