"""Tests for the enclave-hosted router, key exchange, and envelopes."""

import pytest

from repro.errors import AttestationError, IntegrityError
from repro.crypto.aead import AeadKey
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.messages import (
    EncryptedEnvelope,
    deserialize_publication,
    deserialize_subscription,
    serialize_publication,
    serialize_subscription,
)
from repro.scbr.router import ROUTER_CODE, ScbrClient, ScbrRouter
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform


@pytest.fixture()
def setup():
    platform = SgxPlatform(seed=31, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = ScbrRouter(platform)
    attestation.trust_measurement(router.measurement)
    return platform, attestation, router


def sub(sub_id, subscriber, attribute="temp", bound=50):
    return Subscription(
        sub_id, [Constraint(attribute, Operator.GE, bound)], subscriber
    )


class TestSerialisation:
    def test_subscription_round_trip(self):
        original = sub("s1", "alice")
        restored = deserialize_subscription(serialize_subscription(original))
        assert restored.subscription_id == "s1"
        assert restored.subscriber == "alice"
        assert restored.covers(original) and original.covers(restored)

    def test_publication_round_trip(self):
        original = Publication({"temp": 61.5}, b"\x01\x02")
        restored = deserialize_publication(serialize_publication(original))
        assert restored == original

    def test_malformed_rejected(self):
        with pytest.raises(IntegrityError):
            deserialize_subscription(b"junk")
        with pytest.raises(IntegrityError):
            deserialize_publication(b"junk")


class TestEnvelopes:
    def test_seal_open_round_trip(self):
        key = AeadKey(b"\x07" * 32)
        envelope = EncryptedEnvelope.seal(key, "alice", "publish", b"data")
        assert envelope.open(key) == b"data"

    def test_kind_binding(self):
        key = AeadKey(b"\x07" * 32)
        envelope = EncryptedEnvelope.seal(key, "alice", "publish", b"data")
        envelope.kind = "subscribe"
        with pytest.raises(IntegrityError):
            envelope.open(key)

    def test_sender_binding(self):
        key = AeadKey(b"\x07" * 32)
        envelope = EncryptedEnvelope.seal(key, "alice", "publish", b"data")
        envelope.sender = "mallory"
        with pytest.raises(IntegrityError):
            envelope.open(key)


class TestEndToEnd:
    def test_publish_reaches_matching_subscriber(self, setup):
        _platform, attestation, router = setup
        alice = ScbrClient("alice", router, attestation)
        bob = ScbrClient("bob", router, attestation)
        alice.subscribe(sub("s1", "alice", bound=50))
        notifications = bob.publish(Publication({"temp": 75}, b"hot"))
        assert len(notifications) == 1
        received = alice.open_notification(notifications[0])
        assert received.attributes == {"temp": 75}
        assert received.payload == b"hot"

    def test_non_matching_publication_produces_nothing(self, setup):
        _platform, attestation, router = setup
        alice = ScbrClient("alice", router, attestation)
        bob = ScbrClient("bob", router, attestation)
        alice.subscribe(sub("s1", "alice", bound=50))
        assert bob.publish(Publication({"temp": 20})) == []

    def test_notification_unreadable_by_others(self, setup):
        _platform, attestation, router = setup
        alice = ScbrClient("alice", router, attestation)
        bob = ScbrClient("bob", router, attestation)
        alice.subscribe(sub("s1", "alice"))
        notifications = bob.publish(Publication({"temp": 75}))
        with pytest.raises(IntegrityError):
            bob.open_notification(notifications[0])

    def test_multiple_subscribers_each_get_own_copy(self, setup):
        _platform, attestation, router = setup
        alice = ScbrClient("alice", router, attestation)
        carol = ScbrClient("carol", router, attestation)
        bob = ScbrClient("bob", router, attestation)
        alice.subscribe(sub("s1", "alice", bound=10))
        carol.subscribe(sub("s2", "carol", bound=20))
        notifications = bob.publish(Publication({"temp": 30}))
        assert len(notifications) == 2
        opened = 0
        for envelope in notifications:
            for client in (alice, carol):
                try:
                    client.open_notification(envelope)
                    opened += 1
                except IntegrityError:
                    pass
        assert opened == 2

    def test_stats_counts_subscriptions(self, setup):
        _platform, attestation, router = setup
        alice = ScbrClient("alice", router, attestation)
        alice.subscribe(sub("s1", "alice"))
        alice.subscribe(sub("s2", "alice", attribute="volt"))
        assert router.stats()["subscriptions"] == 2


class TestSecurity:
    def test_unkeyed_client_rejected(self, setup):
        _platform, _attestation, router = setup
        key = AeadKey(b"\x01" * 32)
        envelope = EncryptedEnvelope.seal(
            key, "stranger", "publish",
            serialize_publication(Publication({"temp": 1})),
        )
        with pytest.raises(AttestationError):
            router.publish(envelope)

    def test_subscription_spoofing_rejected(self, setup):
        """Mallory cannot register a subscription delivered to Alice."""
        _platform, attestation, router = setup
        ScbrClient("alice", router, attestation)
        mallory = ScbrClient("mallory", router, attestation)
        forged = sub("s1", "alice")  # claims alice as subscriber
        with pytest.raises(IntegrityError):
            mallory.subscribe(forged)

    def test_tampered_envelope_rejected(self, setup):
        _platform, attestation, router = setup
        bob = ScbrClient("bob", router, attestation)
        envelope = EncryptedEnvelope.seal(
            bob.key, "bob", "publish",
            serialize_publication(Publication({"temp": 99})),
        )
        envelope.blob = envelope.blob[:-1] + bytes([envelope.blob[-1] ^ 1])
        with pytest.raises(IntegrityError):
            router.publish(envelope)

    def test_mitm_on_key_exchange_detected(self, setup, monkeypatch):
        """The host relay hands the client its own DH value in place of
        the router's: the router's quote does not commit to it."""
        from repro.crypto.dh import DhKeyPair

        _platform, attestation, router = setup
        mallory_dh = DhKeyPair.generate()
        relay = router.enclave.ecall

        def substituting_relay(entry_point, *args):
            result = relay(entry_point, *args)
            if entry_point == "channel_offer":
                result = dict(result, dh_public=mallory_dh.public_value)
            return result

        monkeypatch.setattr(router.enclave, "ecall", substituting_relay)
        with pytest.raises(AttestationError):
            ScbrClient("victim", router, attestation)

    def test_untrusted_router_code_rejected_by_client(self):
        platform = SgxPlatform(seed=55, quoting_key_bits=512)
        attestation = AttestationService()
        attestation.register_platform(
            platform.platform_id, platform.quoting_enclave.public_key
        )
        router = ScbrRouter(platform)
        # Client pins a different expected measurement.
        with pytest.raises(AttestationError):
            ScbrClient("alice", router, attestation,
                       expected_measurement="0" * 64)

    def test_untrusted_platform_rejected_by_client(self):
        rogue_platform = SgxPlatform(seed=56, quoting_key_bits=512)
        attestation = AttestationService()  # platform never registered
        router = ScbrRouter(rogue_platform)
        with pytest.raises(AttestationError):
            ScbrClient("alice", router, attestation)
