"""The matching plane admits numbers only, and a refusal is a request outcome.

SCBR compares one tenant's values with another's (matching, and the
covering probe that places a subscription), so a value that does not
compare with a number -- a string, a list, ``None`` -- used to escape
as ``TypeError``: from the covering probe (nothing audited, the quota
charge kept, ``check_identity()`` off by one), or, once such a
subscription had landed, from the shard matcher on *another* tenant's
publish.  ``true``, ``NaN`` and ``±Infinity`` compare without raising
but mean nothing as a bound.  The enclave boundary
(``deserialize_subscription`` / ``deserialize_publication``) now
refuses all of them with ``IntegrityError``, so the door audits an
``error``, releases the quota and the books balance -- and every other
tenant is served as before.
"""

import math

import pytest

from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.service import SecureFrontDoor, TenantQuota
from repro.sim.events import Environment

from tests.scbr.oracle import oracle_delivery_sets
from tests.service.oracle import FrontDoorOracle

NOT_NUMBERS = ("abc", "zzz", None, True, [1], {"x": 1},
               math.nan, math.inf, -math.inf)


def _door(seed):
    door = SecureFrontDoor(Environment(), seed=seed)
    for tenant in ("alice", "mallory"):
        door.register_tenant(
            tenant, quota=TenantQuota(subscriptions=4), rate=1e9, burst=1e9,
        )
    return door


def _subscribe(door, subscriptions, tenant, sid, triples):
    receipt = door.subscribe(tenant, sid, triples)
    assert receipt.ok, receipt
    subscriptions.append(Subscription(sid, [
        Constraint(attribute, Operator(op), value)
        for attribute, op, value in triples
    ], tenant))


def _assert_refused(door, receipt, tenant, what):
    assert receipt.outcome == "error", receipt
    assert what in receipt.detail["error"]
    entries = FrontDoorOracle(door._root_key.key_bytes).verify_tenant(
        door, tenant
    )
    assert entries[-1].outcome == "error"
    assert entries[-1].detail == "IntegrityError"


def _assert_alice_served(door, subscriptions, attributes):
    receipt = door.publish("alice", attributes)
    (expected,) = oracle_delivery_sets(
        subscriptions, [Publication(attributes)]
    )
    assert receipt.ok, receipt
    assert receipt.detail["notifications"] == len(expected)
    return len(expected)


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("operator", [">", "<", "=="])
def test_a_non_numeric_constraint_is_refused_audited_and_released(
    operator, value
):
    door = _door(seed=71)
    subscriptions = []
    # On a fresh door the first subscription meets no root, so only the
    # boundary stands between it and the matcher.
    receipt = door.subscribe("mallory", "m1", [("volt", operator, value)])
    _assert_refused(door, receipt, "mallory", "malformed subscription")
    assert door.quota.usage["mallory"]["subscriptions"] == 0
    assert door.subscriptions["mallory"] == set()

    _subscribe(door, subscriptions, "alice", "a1", [("volt", "<", 20)])
    _subscribe(door, subscriptions, "mallory", "m2", [("volt", ">", 5)])
    receipt = door.subscribe("mallory", "m3", [("volt", operator, value)])
    _assert_refused(door, receipt, "mallory", "malformed subscription")
    assert door.quota.usage["mallory"]["subscriptions"] == 1
    assert _assert_alice_served(door, subscriptions, {"volt": 9}) == 2
    FrontDoorOracle(door._root_key.key_bytes).assert_books_balance(door)
    door._ensure_router().check_invariants()


@pytest.mark.parametrize("bounds", [
    (math.nan, 5), (0, math.inf), (-math.inf, 0), (0, math.nan),
], ids=repr)
def test_a_non_finite_range_bound_is_refused(bounds):
    door = _door(seed=72)
    subscriptions = []
    _subscribe(door, subscriptions, "alice", "a1", [("load", ">", 10)])
    receipt = door.subscribe(
        "mallory", "m1", [Constraint.range_between("load", *bounds)]
    )
    _assert_refused(door, receipt, "mallory", "malformed subscription")
    assert door.quota.usage["mallory"]["subscriptions"] == 0
    assert _assert_alice_served(door, subscriptions, {"load": 50}) == 1
    FrontDoorOracle(door._root_key.key_bytes).assert_books_balance(door)


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
def test_a_non_numeric_publication_is_refused_and_others_still_match(value):
    door = _door(seed=73)
    subscriptions = []
    _subscribe(door, subscriptions, "alice", "a1", [("load", ">", 10)])
    _subscribe(door, subscriptions, "mallory", "m1", [("load", "<", 90)])
    receipt = door.publish("mallory", {"load": value})
    _assert_refused(door, receipt, "mallory", "malformed publication")
    receipt = door.publish("mallory", {"load": 50, "tag": value})
    _assert_refused(door, receipt, "mallory", "malformed publication")
    assert _assert_alice_served(door, subscriptions, {"load": 50}) == 2
    FrontDoorOracle(door._root_key.key_bytes).assert_books_balance(door)
    door._ensure_router().check_invariants()
