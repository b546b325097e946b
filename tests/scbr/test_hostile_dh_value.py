"""A hostile DH value fails closed inside the error hierarchy.

Every DH value an enclave or client keys against is host-relayed: the
client's value into the router's ``channel_accept``, the router's value
to the client, a shard's value into the coordinator's ``enroll_batch``
and the coordinator's value into a shard's ``join_complete_batch``.  An
out-of-range value, or one that is not an ``int`` at all, must raise
:class:`IntegrityError` at each of them (not a ``ValueError``,
``TypeError``, ``AttributeError`` or ``OverflowError`` that no
``SecureCloudError`` handler catches), and the plane must still
complete an honest exchange afterwards.
"""

import pytest

from repro.crypto.dh import DH_PRIME
from repro.errors import IntegrityError
from repro.scbr.router import ScbrClient, ScbrRouter, client_channel_key
from repro.service import SecureFrontDoor
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveContext
from repro.sgx.platform import SgxPlatform
from repro.sim.events import Environment

HOSTILE = {
    "zero": 0, "one": 1, "p-1": DH_PRIME - 1, "p": DH_PRIME, "negative": -5,
    "bool": True, "bytes": b"junk", "str": "7", "float": 7.0, "none": None,
}


def _standalone():
    platform = SgxPlatform(seed=1, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = ScbrRouter(platform)
    attestation.trust_measurement(router.measurement)
    return router, attestation, router.enclave


def _door():
    door = SecureFrontDoor(Environment(), seed=5)
    router = door._ensure_router()
    return router, door.attestation, router.coordinator


@pytest.fixture(scope="module", params=["scbr_router", "door_sharded_router"])
def plane(request):
    return _standalone() if request.param == "scbr_router" else _door()


@pytest.fixture(scope="module")
def door_router():
    router, _attestation, _coordinator = _door()
    return router


def _shard_offer(router):
    """A shard's honest join offer and its quote, through real ECALLs."""
    shard = router.shards[0]
    offer = shard.enclave.ecall("join_offer2", None)
    return shard, offer, shard.platform.quoting_enclave.quote(offer["report"])


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_client_value_raises_integrity_error(plane, value):
    _router, _attestation, enclave = plane
    enclave.ecall("channel_offer", "mallory")
    with pytest.raises(IntegrityError):
        enclave.ecall("channel_accept", "mallory", value)


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_router_value_fails_the_client_closed(
        plane, value, monkeypatch):
    router, attestation, enclave = plane
    relay = enclave.ecall

    def substituting_relay(entry_point, *args):
        result = relay(entry_point, *args)
        if entry_point == "channel_offer":
            result = dict(result, dh_public=value)
        return result

    monkeypatch.setattr(enclave, "ecall", substituting_relay)
    with pytest.raises(IntegrityError):
        ScbrClient("victim", router, attestation)


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_shard_value_fails_enrollment_closed(door_router, value):
    _shard, _offer, quote = _shard_offer(door_router)
    with pytest.raises(IntegrityError):
        door_router.coordinator.ecall("enroll_batch", [(0, value, quote)])


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_coordinator_value_fails_the_join_closed(door_router, value):
    shard, offer, quote = _shard_offer(door_router)
    grant = door_router.coordinator.ecall(
        "enroll_batch", [(shard.shard_id, offer["dh_public"], quote)]
    )
    coordinator_quote = door_router.platform.quoting_enclave.quote(
        grant["report"]
    )
    with pytest.raises(IntegrityError):
        shard.enclave.ecall(
            "join_complete_batch", value, coordinator_quote,
            grant["offers"], grant["grants"][shard.shard_id],
        )


def test_honest_exchange_still_completes(plane):
    router, attestation, enclave = plane
    enclave.ecall("channel_offer", "mallory")
    with pytest.raises(IntegrityError):
        enclave.ecall("channel_accept", "mallory", b"junk")
    key = client_channel_key(
        enclave, "alice", attestation, router.measurement
    )
    installed = EnclaveContext(enclave).state["client_keys"]
    assert "mallory" not in installed
    assert installed["alice"].key_bytes == key.key_bytes
