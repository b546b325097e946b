"""One bit vocabulary for both matchers, grown only by inserts.

:class:`~repro.scbr.index.AttributeBits` hands an attribute its bit the
first time an insert names it (``grow``) and reads the bits there are
for a publication or a placement probe (``mask``), skipping an
attribute it has never seen.  ``ContainmentIndex.covers_any_root`` is
such a probe: sharding asks every shard, so a probe that gave bits away
would grow each shard's vocabulary with the whole plane's.  Hypothesis
builds forests over five attributes and probes them with subscriptions
over seven: a probe leaves ``_bits`` as it was and answers as a scan of
``_roots`` with ``Subscription.covers`` does.
"""

from hypothesis import given, settings, strategies as st

from repro.scbr.filters import Subscription
from repro.scbr.index import AttributeBits, ContainmentIndex
from tests.scbr.test_covering_kernel import constraints

ATTRIBUTES = ("a", "b", "c", "d", "e")
UNSEEN = ("f", "g")  # named by probes only


@st.composite
def subscriptions(draw, attributes=ATTRIBUTES):
    chosen = draw(st.lists(st.sampled_from(attributes), min_size=1,
                           max_size=len(attributes), unique=True))
    return Subscription(
        "s", [draw(constraints(attribute)) for attribute in chosen]
    )


def test_grow_hands_out_bits_in_arrival_order_and_mask_only_reads():
    bits = AttributeBits()
    assert bits.grow(["b", "a"]) == 0b11
    assert bits.grow(["c", "a"]) == 0b110
    assert bits == {"b": 1, "a": 2, "c": 4}
    assert bits.mask(["a", "z", "c"]) == 0b110
    assert bits.mask(["z"]) == 0
    assert bits == {"b": 1, "a": 2, "c": 4}


@settings(max_examples=150, deadline=None)
@given(st.lists(subscriptions(), max_size=30),
       st.lists(subscriptions(ATTRIBUTES + UNSEEN), min_size=1, max_size=8))
def test_a_probe_grows_no_bit_and_answers_as_a_scan_of_the_roots(
        pool, probes):
    index = ContainmentIndex()
    for serial, subscription in enumerate(pool):
        index.insert(Subscription("s%02d" % serial,
                                  subscription.constraints.values()))
    bits = dict(index._bits)
    for probe in probes:
        assert index.covers_any_root(probe) == any(
            root.subscription.covers(probe) for root in index._roots
        )
        assert index._bits == bits
    assert index.check_invariants()
    assert index._bits == bits
