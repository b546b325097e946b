"""A hostile client DH value fails closed inside the error hierarchy.

``channel_accept`` hands the host-supplied client value straight to
``DhKeyPair.shared_key`` inside the router enclave.  An out-of-range
value used to raise ``ValueError`` and a non-int ``TypeError``; both
reached the host as something no ``SecureCloudError`` handler catches.
Every such value must raise :class:`IntegrityError`, and the router
must still complete an honest exchange afterwards.
"""

import pytest

from repro.crypto.dh import DH_PRIME
from repro.errors import IntegrityError
from repro.scbr.keyexchange import RouterKeyExchange
from repro.scbr.router import ScbrRouter
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


@pytest.mark.parametrize("value", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_client_value_raises_integrity_error(plane, value):
    router, _attestation, _enclave = plane
    router.channel_offer("mallory")
    with pytest.raises(IntegrityError):
        router.channel_accept("mallory", value)


def test_honest_exchange_still_completes(plane):
    router, attestation, enclave = plane
    router.channel_offer("mallory")
    with pytest.raises(IntegrityError):
        router.channel_accept("mallory", b"junk")
    key = RouterKeyExchange(router, attestation).establish(
        "alice", expected_measurement=router.measurement
    )
    installed = EnclaveContext(enclave).state["client_keys"]
    assert "mallory" not in installed
    assert installed["alice"].key_bytes == key.key_bytes
