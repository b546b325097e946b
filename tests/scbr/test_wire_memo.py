"""A subscription is serialised once; what is sealed does not change.

``serialize_subscription`` keeps the bytes it produces on the (immutable)
subscription, so a shard checkpoint seals stored bytes instead of
re-encoding its whole partition.  That is only safe if the kept bytes
are exactly what a fresh encode would give, if nothing a client sent can
stand in for them, and if a subscription really cannot change; and the
sealed snapshot must stay byte for byte what it was before the memo
existed (the digests below were computed on the commit before it).
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import AeadKey
from repro.crypto.primitives import DeterministicRandomSource
from repro.scbr.filters import Constraint, Operator, Subscription
from repro.scbr.messages import (
    deserialize_subscription,
    serialize_subscription,
)
from repro.scbr.sharding import _AAD_REMOVE, _AAD_SUBSCRIPTION, SHARD_CODE
from repro.scbr.workload import ScbrWorkload
from repro.sgx.enclave import EnclaveContext
from repro.sgx.platform import SgxPlatform


def reference_document(subscription):
    """The wire document, written out independently of the encoder."""
    return {
        "id": subscription.subscription_id,
        "subscriber": subscription.subscriber,
        "constraints": [
            [c.attribute, c.operator.value, c.value]
            for c in subscription.constraints.values()
        ],
    }


def reference_encode(subscription):
    return json.dumps(
        reference_document(subscription), sort_keys=True
    ).encode("utf-8")


numbers = st.one_of(
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def constraints(draw, attribute):
    operator = draw(st.sampled_from(list(Operator)))
    if operator is Operator.RANGE:
        low, high = sorted((draw(numbers), draw(numbers)))
        return Constraint.range_between(attribute, low, high)
    return Constraint(attribute, operator, draw(numbers))


@st.composite
def subscriptions(draw):
    attributes = draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    return Subscription(
        draw(st.text()),
        [draw(constraints(attribute)) for attribute in attributes],
        draw(st.one_of(st.none(), st.text())),
    )


class TestMemoisedBytes:
    @given(subscriptions())
    @settings(max_examples=60)
    def test_kept_bytes_equal_a_fresh_encode(self, subscription):
        first = serialize_subscription(subscription)
        assert first == reference_encode(subscription)
        assert serialize_subscription(subscription) is first
        twin = Subscription(
            subscription.subscription_id,
            list(subscription.constraints.values()),
            subscription.subscriber,
        )
        assert serialize_subscription(twin) == first

    @given(subscriptions())
    @settings(max_examples=60)
    def test_round_trip_is_the_identity_on_bytes(self, subscription):
        wire = serialize_subscription(subscription)
        assert serialize_subscription(deserialize_subscription(wire)) == wire

    @given(subscriptions(), st.sampled_from([None, 0, 3]))
    @settings(max_examples=40)
    def test_non_canonical_input_is_never_what_gets_sealed(
        self, subscription, indent
    ):
        # What a client may send: the same document with its keys in
        # another order and other whitespace.
        document = reference_document(subscription)
        sent = json.dumps(
            {key: document[key] for key in ("subscriber", "id", "constraints")},
            indent=indent, separators=(" ,", " : "),
        ).encode("utf-8")
        canonical = reference_encode(subscription)
        assert sent != canonical
        received = deserialize_subscription(sent)
        assert received.wire_memo is None
        assert serialize_subscription(received) == canonical

    def test_known_answer_vector(self):
        subscription = Subscription(
            "sub-é-7",
            [
                Constraint("load", Operator.GT, 41),
                Constraint("volt", Operator.LE, 229.5),
                Constraint.range_between("feeder", 3, 9),
                Constraint("phase", Operator.EQ, 2),
                Constraint("amps", Operator.LT, -1),
                Constraint("hz", Operator.GE, 50),
            ],
            "tenant-03",
        )
        assert serialize_subscription(subscription) == (
            b'{"constraints": [["load", ">", 41], ["volt", "<=", 229.5], '
            b'["feeder", "[]", [3, 9]], ["phase", "==", 2], '
            b'["amps", "<", -1], ["hz", ">=", 50]], '
            b'"id": "sub-\\u00e9-7", "subscriber": "tenant-03"}'
        )


class TestImmutability:
    def test_a_built_subscription_refuses_every_assignment(self):
        subscription = Subscription(
            "s", [Constraint("x", Operator.LE, 1)], "alice"
        )
        for name in ("subscription_id", "subscriber", "constraints"):
            with pytest.raises(AttributeError):
                setattr(subscription, name, getattr(subscription, name))
        with pytest.raises(AttributeError):
            subscription.anything_else = 1
        assert not hasattr(subscription, "__dict__")

    def test_the_memo_is_written_once(self):
        subscription = Subscription("s", [Constraint("x", Operator.LE, 1)])
        assert subscription.wire_memo is None
        wire = serialize_subscription(subscription)
        assert subscription.wire_memo is wire
        with pytest.raises(AttributeError):
            subscription.wire_memo = b"{}"
        assert serialize_subscription(subscription) is wire

    def test_a_constraint_is_frozen_and_has_no_dict(self):
        constraint = Constraint.range_between("x", 1, 2)
        with pytest.raises(AttributeError):
            constraint.value = (0, 9)
        assert not hasattr(constraint, "__dict__")


# --- the sealed snapshot is byte for byte what it was --------------------

def _joined_shard(platform, shard_id, plane_key):
    """A shard enclave holding ``plane_key`` without the join handshake."""
    enclave = platform.load_enclave(SHARD_CODE)
    enclave.ecall("setup", shard_id, None, None)
    EnclaveContext(enclave).state["plane_key"] = plane_key
    return enclave


def _snapshot_digests():
    """Two seeded shards after insert / remove / evacuate / load churn.

    Every nonce comes from one ``DeterministicRandomSource``, so the
    sealed snapshots are a function of the code alone.
    """
    plane_key = AeadKey(
        bytes(range(32)), random_source=DeterministicRandomSource(23)
    )
    # The coordinator's side of an unsubscribe: same key bytes, its own
    # nonce stream, so the pinned snapshots' nonces stay where they were.
    coordinator_key = AeadKey(
        bytes(range(32)), random_source=DeterministicRandomSource(24)
    )
    platform = SgxPlatform(seed=2018, quoting_key_bits=512)
    first = _joined_shard(platform, 0, plane_key)
    second = _joined_shard(platform, 1, plane_key)
    workload = ScbrWorkload(
        seed=7, num_attributes=6, containment_fraction=0.5, num_subscribers=4
    )
    pool = workload.subscriptions(200)
    for position, subscription in enumerate(pool):
        first.ecall("insert", plane_key.seal(
            serialize_subscription(subscription), _AAD_SUBSCRIPTION
        ))
        if position % 16 == 15:
            first.ecall("snapshot")  # the fleet's checkpoint cadence
        if position % 7 == 3:
            victim = pool[position - 2]
            first.ecall("remove", coordinator_key.seal(json.dumps({
                "id": victim.subscription_id, "client": victim.subscriber,
            }).encode("utf-8"), _AAD_REMOVE))
        if position % 64 == 63:
            _ids, batch = first.ecall("evacuate", 8 * 512)
            second.ecall("load", batch)
    digests = []
    for enclave in (first, second):
        version, blob = enclave.ecall("snapshot")
        digests.append(
            (version, len(blob), hashlib.sha256(blob).hexdigest())
        )
    return digests


def test_sealed_snapshots_match_the_digests_pinned_before_the_memo():
    assert _snapshot_digests() == [
        (232, 21486,
         "31224727dcb8e7fad5b268e3f8674bc2b2d35eee4d28241b73b95e0e11ccf63a"),
        (0, 6635,
         "b7a1b58c0b92140d614b67a83c1f94f6c5448213804683c30612dae794bb90f3"),
    ]
