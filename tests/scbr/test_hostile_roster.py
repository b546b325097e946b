"""A malformed host-relayed roster or quote fails closed.

The DH values inside a plane join are checked by the one channel
(``test_hostile_dh_value.py``); this file covers what carries them.  A
roster -- the ``offers`` a host relays into the coordinator's
``enroll_batch`` and into each shard's ``join_complete_batch`` -- of
any other shape than ``(int shard id, value[, quote])`` entries raises
:class:`IntegrityError`, and a quote that is not a well-typed
:class:`Quote` raises :class:`AttestationError` in
``AttestationService.verify`` before any cycle is charged: not the
``TypeError``, ``ValueError``, ``AttributeError`` or
``UnicodeEncodeError`` of unpacking or encoding it, which no
``SecureCloudError`` handler catches.
"""

import pytest

from repro.errors import AttestationError, IntegrityError
from repro.scbr.router import ScbrClient
from repro.service import SecureFrontDoor
from repro.sgx.attestation import AttestationService, Quote
from repro.sim.events import Environment

HOSTILE_QUOTES = {"none": None, "str": "junk", "int": 5}
HOSTILE_JOIN_ROSTERS = {
    "none": None, "int": 7, "bare-entry": [5], "short-entry": [(0,)],
}


@pytest.fixture(scope="module")
def door_router():
    door = SecureFrontDoor(Environment(), seed=5)
    return door._ensure_router()


def _shard_offer(router):
    """A shard's honest join offer and its quote, through real ECALLs."""
    shard = router.shards[0]
    offer = shard.enclave.ecall("join_offer2", None)
    return shard, offer, shard.platform.quoting_enclave.quote(offer["report"])


def _grant(router):
    shard, offer, quote = _shard_offer(router)
    grant = router.coordinator.ecall(
        "enroll_batch", [(shard.shard_id, offer["dh_public"], quote)]
    )
    coordinator_quote = router.platform.quoting_enclave.quote(
        grant["report"]
    )
    return shard, grant, coordinator_quote


@pytest.mark.parametrize("roster", [
    None, 7, [5], [(0,)], [(0, 5, None, 1)],
], ids=["none", "int", "bare-entry", "short-entry", "long-entry"])
def test_a_malformed_enrollment_roster_raises_integrity_error(
        door_router, roster):
    with pytest.raises(IntegrityError):
        door_router.coordinator.ecall("enroll_batch", roster)


def test_a_shard_id_that_is_not_an_int_raises_integrity_error(door_router):
    # Honest value and quote, so only the id is wrong; it would reach
    # the roster transcript, which encodes ids as ASCII.
    _shard, offer, quote = _shard_offer(door_router)
    with pytest.raises(IntegrityError):
        door_router.coordinator.ecall(
            "enroll_batch", [("é", offer["dh_public"], quote)]
        )


@pytest.mark.parametrize("quote", HOSTILE_QUOTES.values(),
                         ids=HOSTILE_QUOTES.keys())
def test_a_malformed_shard_quote_fails_enrollment_closed(door_router, quote):
    _shard, offer, _quote = _shard_offer(door_router)
    with pytest.raises(AttestationError):
        door_router.coordinator.ecall(
            "enroll_batch", [(0, offer["dh_public"], quote)]
        )


@pytest.mark.parametrize("offers", HOSTILE_JOIN_ROSTERS.values(),
                         ids=HOSTILE_JOIN_ROSTERS.keys())
def test_a_malformed_join_roster_raises_integrity_error(door_router, offers):
    shard, grant, coordinator_quote = _grant(door_router)
    with pytest.raises(IntegrityError):
        shard.enclave.ecall(
            "join_complete_batch", grant["dh_public"], coordinator_quote,
            offers, grant["grants"][shard.shard_id],
        )


@pytest.mark.parametrize("quote", HOSTILE_QUOTES.values(),
                         ids=HOSTILE_QUOTES.keys())
def test_a_malformed_coordinator_quote_fails_the_join_closed(
        door_router, quote):
    shard, grant, _quote = _grant(door_router)
    with pytest.raises(AttestationError):
        shard.enclave.ecall(
            "join_complete_batch", grant["dh_public"], quote,
            grant["offers"], grant["grants"][shard.shard_id],
        )


MALFORMED = {
    "none": None,
    "str": "junk",
    "int": 5,
    "platform-none": Quote(None, "ab" * 32, b"r", 7),
    "measurement-bytes": Quote("p", b"ab", b"r", 7),
    "measurement-non-ascii": Quote("p", "é", b"r", 7),
    "report-str": Quote("p", "ab" * 32, "r", 7),
    "signature-negative": Quote("p", "ab" * 32, b"r", -7),
    "signature-bool": Quote("p", "ab" * 32, b"r", True),
    "platform-surrogate": Quote("\ud800", "ab" * 32, b"r", 7),
}


@pytest.mark.parametrize("quote", MALFORMED.values(), ids=MALFORMED.keys())
def test_verify_refuses_a_malformed_quote_before_charging(quote):
    service = AttestationService()
    charged = []
    with pytest.raises(AttestationError):
        service.verify(quote, compute=charged.append)
    assert charged == []
    assert (service.hits, service.misses) == (0, 0)


@pytest.mark.parametrize("quote", HOSTILE_QUOTES.values(),
                         ids=HOSTILE_QUOTES.keys())
def test_a_swapped_router_quote_fails_the_client_closed(
        door_router, quote, monkeypatch):
    # The host quotes the router's offer for the client; here it hands
    # the client something else.
    quoting = door_router.enclave.platform.quoting_enclave
    monkeypatch.setattr(quoting, "quote", lambda report: quote)
    with pytest.raises(AttestationError):
        ScbrClient("victim", door_router, AttestationService())
