"""Tests for the fleet-scale attestation/provisioning plane."""

import pytest

from repro.errors import AttestationError, ConfigurationError, IntegrityError
from repro.crypto.dh import DhKeyPair
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.keyexchange import dh_commitment
from repro.scbr.messages import EncryptedEnvelope, serialize_publication
from repro.scbr.provisioning import (
    batch_join_commitment,
    platform_fingerprint,
)
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import ShardedScbrRouter
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform


def _quoted(platform, value=7):
    """A platform-signed quote over a DH commitment for ``value``."""
    enclave = platform.quoting_enclave
    from repro.sgx.attestation import Quote

    unsigned = Quote(
        platform_id=platform.platform_id,
        measurement="m" * 64,
        report_data=dh_commitment(value),
        signature=0,
    )
    signature = enclave._keypair.sign(unsigned.signed_payload())
    return Quote(
        platform_id=platform.platform_id,
        measurement="m" * 64,
        report_data=dh_commitment(value),
        signature=signature,
    )


@pytest.fixture()
def verified_setup():
    platform = SgxPlatform(seed=61, quoting_key_bits=512)
    service = AttestationService()
    service.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    service.trust_measurement("m" * 64)
    return platform, service


class TestVerificationCache:
    def test_second_verification_is_a_hit(self, verified_setup):
        platform, service = verified_setup
        quote = _quoted(platform)
        service.verify(quote)
        assert (service.hits, service.misses) == (0, 1)
        service.verify(quote)
        assert (service.hits, service.misses) == (1, 1)

    def test_hit_charges_less_than_miss(self, verified_setup):
        platform, service = verified_setup
        quote = _quoted(platform)
        charged = []
        service.verify(quote, compute=charged.append)
        service.verify(quote, compute=charged.append)
        assert charged[1] < charged[0] // 100

    def test_failure_is_never_cached(self, verified_setup):
        platform, service = verified_setup
        quote = _quoted(platform)
        with pytest.raises(AttestationError):
            service.verify(quote, expected_report_data=b"something else")
        # The same quote still needs (and passes) a full verification:
        # the failure cached nothing.
        service.verify(quote)
        assert (service.hits, service.misses) == (0, 1)

    def test_forged_signature_cannot_ride_a_hit(self, verified_setup):
        platform, service = verified_setup
        quote = _quoted(platform)
        service.verify(quote)
        from repro.sgx.attestation import Quote

        forged = Quote(
            platform_id=quote.platform_id,
            measurement=quote.measurement,
            report_data=quote.report_data,
            signature=quote.signature ^ 1,
        )
        # Different signature -> different cache key -> full
        # verification, which the bad signature fails.
        with pytest.raises(AttestationError):
            service.verify(forged)

    def test_revocation_flushes_and_fails_closed(self, verified_setup):
        platform, service = verified_setup
        quote = _quoted(platform)
        service.verify(quote)
        epoch = service.epoch
        service.revoke_measurement(quote.measurement)
        assert service.epoch == epoch + 1
        assert service.invalidations == 1
        with pytest.raises(AttestationError):
            service.verify(quote)
        # Pinning the measurement by expectation does not bypass an
        # explicit revocation either.
        with pytest.raises(AttestationError):
            service.verify(quote, expected_measurement=quote.measurement)

    def test_deregistration_flushes_and_fails_closed(self, verified_setup):
        platform, service = verified_setup
        quote = _quoted(platform)
        service.verify(quote)
        service.deregister_platform(platform.platform_id)
        assert not service.platform_registered(platform.platform_id)
        assert service.invalidations == 1
        with pytest.raises(AttestationError):
            service.verify(quote)

    def test_no_stale_verdict_across_epoch_bump(self, verified_setup):
        """An epoch bump stales *every* entry, not just the flushed
        ones: an unrelated platform's cached verdict re-earns a full
        verification after any revocation event."""
        platform, service = verified_setup
        other = SgxPlatform(seed=62, quoting_key_bits=512)
        service.register_platform(
            other.platform_id, other.quoting_enclave.public_key
        )
        quote = _quoted(platform)
        other_quote = _quoted(other)
        service.verify(quote)
        service.verify(other_quote)
        assert service.misses == 2
        service.deregister_platform(platform.platform_id)
        service.verify(other_quote)  # unaffected platform...
        assert service.hits == 0     # ...still re-verifies in full
        assert service.misses == 3

    def test_behind_the_back_revocation_still_fails_closed(
        self, verified_setup
    ):
        """A revocation made behind a cached verdict is honoured: the
        next verification of the cached quote fails closed."""
        platform, service = verified_setup
        quote = _quoted(platform)
        service.verify(quote)
        service.revoke_measurement(quote.measurement)
        with pytest.raises(AttestationError):
            service.verify(quote)

    def test_shifted_field_boundary_cannot_ride_a_hit(self, verified_setup):
        """Moving signature bytes into the report data keeps ``payload
        + "|" + signature`` byte-identical, so a key over that
        concatenation would let the forgery hit; the key covers the
        length-prefixed quote instead."""
        from repro.sgx.attestation import Quote

        platform, service = verified_setup
        for value in range(64):
            quote = _quoted(platform, value)
            signature = quote.signature.to_bytes(
                (quote.signature.bit_length() + 7) // 8, "big"
            )
            cut = signature.find(b"|")
            if 0 <= cut < len(signature) - 1 and signature[cut + 1]:
                break
        else:
            pytest.fail("no signature with a usable '|' byte")
        forged = Quote(
            platform_id=quote.platform_id,
            measurement=quote.measurement,
            report_data=quote.report_data + b"|" + signature[:cut],
            signature=int.from_bytes(signature[cut + 1:], "big"),
        )
        assert (forged.signed_payload() + b"|" + signature[cut + 1:]
                == quote.signed_payload() + b"|" + signature)
        service.verify(quote)
        with pytest.raises(AttestationError, match="signature invalid"):
            service.verify(forged)


class TestDhCommitmentEdge:
    def test_zero_public_value_has_nonempty_encoding(self):
        assert dh_commitment(0) != dh_commitment(1)
        # The guard: zero must encode as one byte, not the empty
        # string; the commitment is over b"scbr-dh|\x00".
        from repro.crypto.primitives import sha256

        assert dh_commitment(0) == sha256(b"scbr-dh|\x00")


class TestBatchJoinCommitment:
    def test_sensitive_to_every_field(self):
        offers = [(0, 11), (1, 22)]
        base = batch_join_commitment(5, offers)
        assert batch_join_commitment(6, offers) != base
        assert batch_join_commitment(5, [(0, 11)]) != base
        assert batch_join_commitment(5, [(1, 22), (0, 11)]) != base
        assert batch_join_commitment(5, [(0, 11), (1, 23)]) != base
        assert batch_join_commitment(5, offers) == base


def _plane(shards=3, seed=50, tickets=True, **kwargs):
    platform = SgxPlatform(seed=seed, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = ShardedScbrRouter(
        platform,
        lambda i: SgxPlatform(seed=seed + 100 + i, quoting_key_bits=512),
        attestation_service=attestation,
        shards=shards,
        **kwargs,
    )
    if not tickets:
        router.provisioner.tickets = False
    attestation.trust_measurement(router.measurement)
    return platform, attestation, router


def _fail_all(router):
    for shard in list(router.shards):
        router.fail_shard(shard.shard_id)


def _publication(publisher, attributes):
    return EncryptedEnvelope.seal(
        publisher.key, publisher.client_id, "publish",
        serialize_publication(Publication(attributes)),
    )


def _sub(sub_id, bound, subscriber="alice"):
    return Subscription(
        sub_id, [Constraint("x", Operator.LE, bound)], subscriber
    )


class TestBatchEnrollment:
    def test_bring_up_uses_one_batch(self):
        _platform, attestation, router = _plane(shards=4)
        assert router.provisioner.batches == 1
        assert router.provisioner.batched_joins == 4
        # One coordinator quote served all four shards: 1 miss + 3 hits
        # coordinator-side, plus 4 distinct shard-quote misses.
        assert attestation.hits == 3
        assert attestation.misses == 5

    def test_tampered_roster_rejected(self):
        """A host substituting a shard's DH value in the relayed batch
        fails the joining shard closed (MITM on the batched join)."""
        _platform, _attestation, router = _plane(shards=2)
        shard = router.shards[0]
        offer = shard.enclave.ecall("join_offer2", None)
        quote = shard.platform.quoting_enclave.quote(offer["report"])
        grant = router.coordinator.ecall(
            "enroll_batch", [(0, offer["dh_public"], quote)]
        )
        coordinator_quote = router.platform.quoting_enclave.quote(
            grant["report"]
        )
        mallory = DhKeyPair.generate()
        with pytest.raises(AttestationError):
            shard.enclave.ecall(
                "join_complete_batch", grant["dh_public"],
                coordinator_quote,
                [(0, mallory.public_value)],  # edited roster
                grant["grants"][0],
            )

    def test_quote_from_another_batch_rejected(self):
        """Replaying a coordinator quote over a *different* batch's
        commitment fails: the roster is bound into the report data."""
        _platform, _attestation, router = _plane(shards=2)
        shard = router.shards[0]
        offer = shard.enclave.ecall("join_offer2", None)
        quote = shard.platform.quoting_enclave.quote(offer["report"])
        grant = router.coordinator.ecall(
            "enroll_batch", [(0, offer["dh_public"], quote)]
        )
        # A second batch for a different roster yields a different
        # commitment; its quote cannot authenticate the first grant.
        other_offer = shard.enclave.ecall("join_offer2", None)
        other_quote = shard.platform.quoting_enclave.quote(
            other_offer["report"]
        )
        other_grant = router.coordinator.ecall(
            "enroll_batch", [(9, other_offer["dh_public"], other_quote)]
        )
        wrong_quote = router.platform.quoting_enclave.quote(
            other_grant["report"]
        )
        offer = shard.enclave.ecall("join_offer2", None)
        with pytest.raises(AttestationError):
            shard.enclave.ecall(
                "join_complete_batch", grant["dh_public"], wrong_quote,
                grant["offers"], grant["grants"][0],
            )

    def test_empty_batch_rejected(self):
        _platform, _attestation, router = _plane(shards=2)
        with pytest.raises(ConfigurationError):
            router.coordinator.ecall("enroll_batch", [])

    def test_matching_survives_batched_mass_recovery(self):
        _platform, attestation, router = _plane(shards=3)
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        for i in range(9):
            alice.subscribe(_sub("a%d" % i, 10 * (i + 1)))
        _fail_all(router)
        router.recover_shards([s.shard_id for s in router.shards])
        routed = router.publish_routed(_publication(publisher, {"x": 35}))
        _pub, matched = alice.open_notification_detail(routed[0][1])
        assert sorted(matched) == sorted(
            "a%d" % i for i in range(9) if 35 <= 10 * (i + 1)
        )


class TestResumptionTickets:
    def test_recovery_resumes_via_ticket(self):
        """Seeded factory platforms share a fingerprint with their
        predecessors, so mass recovery re-joins on tickets alone --
        no quote verification at all."""
        _platform, attestation, router = _plane(shards=3)
        hits, misses = attestation.hits, attestation.misses
        _fail_all(router)
        router.recover_shards([s.shard_id for s in router.shards])
        assert router.provisioner.resumed_joins == 3
        assert (attestation.hits, attestation.misses) == (hits, misses)

    def test_ticket_after_revocation_rejected(self):
        """Revoking the shard measurement kills outstanding tickets:
        the re-join falls back to the full handshake, which also fails
        -- the revoked code cannot re-enter the plane at all."""
        _platform, attestation, router = _plane(shards=2)
        attestation.revoke_measurement(
            router.shards[0].enclave.code.measurement
        )
        _fail_all(router)
        with pytest.raises(AttestationError):
            router.recover_shards([s.shard_id for s in router.shards])
        assert router.provisioner.resumed_joins == 0
        assert router.provisioner.ticket_fallbacks == 2

    def test_ticket_after_deregistration_rejected(self):
        """Deregistering the *enrolled* platform invalidates its
        ticket; the fresh replacement platform re-enrolls in full."""
        _platform, attestation, router = _plane(shards=1)
        enrolled_platform = router.shards[0].platform
        attestation.deregister_platform(enrolled_platform.platform_id)
        router.fail_shard(0)
        router.recover_shard(0)
        # The ticket named the deregistered platform: resumption
        # refused, full handshake used instead (the factory respawn is
        # a new registration).
        assert router.provisioner.resumed_joins == 0
        assert router.provisioner.ticket_fallbacks == 1
        assert router.provisioner.cold_joins + \
            router.provisioner.batched_joins >= 2

    def test_foreign_machine_cannot_use_the_ticket(self):
        """The resumption secret is platform-sealed: a different
        machine presenting the stored blob falls back (fail closed at
        unseal, not at the coordinator)."""
        _platform, _attestation, router = _plane(shards=1)
        shard = router.shards[0]
        fingerprint = platform_fingerprint(shard.platform)
        _ticket, sealed = router.provisioner._resume[fingerprint]
        foreign = SgxPlatform(seed=999, quoting_key_bits=512)
        from repro.scbr.sharding import SHARD_CODE

        enclave = foreign.load_enclave(SHARD_CODE)
        enclave.ecall("setup", 0, 512, None, None, None)
        with pytest.raises(IntegrityError):
            enclave.ecall("resume_offer", sealed)

    def test_chaos_lost_ticket_falls_back(self):
        from repro.chaos import ChaosConfig, ChaosInjector

        chaos = ChaosInjector(ChaosConfig(seed=3, ticket_loss_rate=1.0))
        _platform, _attestation, router = _plane(shards=2, chaos=chaos)
        _fail_all(router)
        router.recover_shards([0, 1])
        assert router.provisioner.resumed_joins == 0
        assert router.provisioner.ticket_fallbacks == 2
        # Fallback is liveness-preserving: the plane healed anyway.
        assert all(not s.enclave.destroyed for s in router.shards)


class TestKeyRotation:
    def test_rotation_invalidates_tickets_and_composes_with_recovery(
        self,
    ):
        _platform, attestation, router = _plane(shards=2)
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        alice.subscribe(_sub("a1", 50))
        epoch = router.rotate_plane_key()
        assert epoch == 2
        assert router.provisioner.rotations == 1
        # Live shards rolled forward without re-attestation; matching
        # still works under the new key.
        routed = router.publish_routed(_publication(publisher, {"x": 40}))
        _pub, matched = alice.open_notification_detail(routed[0][1])
        assert matched == ["a1"]
        # Pre-rotation tickets are dead: recovery after rotation falls
        # back to the full handshake (and earns epoch-2 tickets).
        resumed_before = router.provisioner.resumed_joins
        _fail_all(router)
        router.recover_shards([0, 1])
        assert router.provisioner.resumed_joins == resumed_before
        assert router.provisioner.ticket_fallbacks >= 2
        routed = router.publish_routed(_publication(publisher, {"x": 40}))
        _pub, matched = alice.open_notification_detail(routed[0][1])
        assert matched == ["a1"]
        # The re-earned epoch-2 tickets resume normally.
        _fail_all(router)
        router.recover_shards([0, 1])
        assert router.provisioner.resumed_joins == resumed_before + 2

    def test_second_rotation_bumps_epoch_again(self):
        _platform, _attestation, router = _plane(shards=1)
        assert router.rotate_plane_key() == 2
        assert router.rotate_plane_key() == 3

    def test_rekey_blob_is_epoch_bound_to_the_plane_key(self):
        """A shard outside the plane (no plane key) cannot process a
        rekey blob, and a tampered blob fails authentication."""
        _platform, _attestation, router = _plane(shards=1)
        shard = router.shards[0]
        result = router.coordinator.ecall("rotate")
        blob = result["rekey"][0]
        with pytest.raises(IntegrityError):
            shard.enclave.ecall("rekey", blob[:-1] + bytes([blob[-1] ^ 1]))


class TestPlatformFingerprint:
    def test_same_seed_same_fingerprint_new_platform_id(self):
        a = SgxPlatform(seed=7, quoting_key_bits=512)
        b = SgxPlatform(seed=7, quoting_key_bits=512)
        assert a.platform_id != b.platform_id
        assert platform_fingerprint(a) == platform_fingerprint(b)

    def test_different_seed_different_fingerprint(self):
        a = SgxPlatform(seed=7, quoting_key_bits=512)
        b = SgxPlatform(seed=8, quoting_key_bits=512)
        assert platform_fingerprint(a) != platform_fingerprint(b)


class TestAttestationIsMandatory:
    def test_router_requires_an_attestation_service(self):
        platform = SgxPlatform(seed=70, quoting_key_bits=512)
        with pytest.raises(TypeError):
            ShardedScbrRouter(
                platform,
                lambda i: SgxPlatform(seed=170 + i, quoting_key_bits=512),
            )

    def test_unverifying_coordinator_grants_nothing(self):
        """A coordinator set up without an attestation service cannot
        enroll or resume anyone: there is no unverified way in."""
        from repro.scbr.sharding import COORD_CODE

        _platform, _attestation, router = _plane(shards=1)
        shard = router.shards[0]
        offer = shard.enclave.ecall("join_offer2", None)
        quote = shard.platform.quoting_enclave.quote(offer["report"])
        fingerprint = platform_fingerprint(shard.platform)
        ticket, _sealed = router.provisioner._resume[fingerprint]

        lone = SgxPlatform(seed=71, quoting_key_bits=512)
        coordinator = lone.load_enclave(COORD_CODE)
        coordinator.ecall("setup", None, None, None)
        with pytest.raises(ConfigurationError):
            coordinator.ecall(
                "enroll_batch", [(0, offer["dh_public"], quote)]
            )
        with pytest.raises(ConfigurationError):
            coordinator.ecall("resume", 0, ticket, b"n" * 32)

    def test_unverifying_shard_cannot_complete_a_join(self):
        """The shard side too: set up without a verifier, it refuses
        the grant instead of accepting an unchecked coordinator."""
        from repro.scbr.sharding import SHARD_CODE

        _platform, attestation, router = _plane(shards=1)
        machine = SgxPlatform(seed=72, quoting_key_bits=512)
        attestation.register_platform(
            machine.platform_id, machine.quoting_enclave.public_key
        )
        enclave = machine.load_enclave(SHARD_CODE)
        enclave.ecall("setup", 5, 512, None, None, None)
        offer = enclave.ecall("join_offer2", None)
        quote = machine.quoting_enclave.quote(offer["report"])
        grant = router.coordinator.ecall(
            "enroll_batch", [(5, offer["dh_public"], quote)]
        )
        coordinator_quote = router.platform.quoting_enclave.quote(
            grant["report"]
        )
        with pytest.raises(ConfigurationError):
            enclave.ecall(
                "join_complete_batch", grant["dh_public"],
                coordinator_quote, grant["offers"], grant["grants"][5],
            )
