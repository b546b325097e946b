"""A flat table evaluates each distinct subscription once, and only one
whose constrained attributes the publication all carries; the match set
is every row's.

``LinearIndex`` files each distinct subscription object once, under one
of its own constrained attributes (the one whose filing was smallest
when the object first arrived), with the count of rows holding it and
the bit mask of its constrained attributes.  After charging the scan it
looks only at the objects filed under an attribute the publication
carries and evaluates only those whose mask lies inside the
publication's (the bits of the attributes it carries that the table
has): a subscription missing one (or seeing ``None`` there) cannot
match.  Hypothesis drives inserts of shared objects and of distinct
objects that share an id, removes (of a shared object too), front
extractions and matches against brute force over the rows, with
publications that may value an attribute ``None``, leave attributes
out, or carry attributes no subscription constrains, and publications
built to satisfy one row while carrying more attributes than it
constrains.  After every step
each object is filed exactly once, under one of its own attributes,
with the exact count of rows holding it and the OR of its attributes'
bits, no zero count or empty attribute is left in the filing, and the
bits changed only if an object arrived, by one new bit per attribute
it brought.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.naive import LinearIndex
from repro.sgx.memory import SimulatedMemory
from repro.sim.clock import CycleClock

ATTRIBUTES = ("a", "b", "c", "d", "e")
UNCONSTRAINED = ("f", "g")  # carried by publications only
values = st.integers(-3, 3)


@st.composite
def constraints(draw, attribute):
    operator = draw(st.sampled_from(list(Operator)))
    if operator is Operator.RANGE:
        low, high = sorted((draw(values), draw(values)))
        return Constraint.range_between(attribute, low, high)
    return Constraint(attribute, operator, draw(values))


@st.composite
def subscriptions(draw):
    # Attributes in any order: an object may be filed under any of them.
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                               max_size=3, unique=True))
    return Subscription(
        draw(st.sampled_from(["s0", "s1", "s2"])),  # ids repeat across objects
        [draw(constraints(attribute)) for attribute in attributes],
    )


publications = st.builds(
    Publication,
    st.dictionaries(st.sampled_from(ATTRIBUTES + UNCONSTRAINED),
                    values | st.none(),
                    max_size=len(ATTRIBUTES + UNCONSTRAINED)),
)
picks = st.integers(0, 1 << 16)
steps = st.one_of(
    st.tuples(st.just("insert"), picks),
    st.tuples(st.just("remove"), picks),
    st.tuples(st.just("extract"), st.integers(0, 4)),
    st.tuples(st.just("match"), publications),
    st.tuples(st.just("witness"), st.tuples(picks, publications)),
)


def witness(subscription, extra):
    """A publication that satisfies ``subscription``, carrying ``extra``'s
    other attributes too (constrained by other rows, or by none)."""
    attributes = dict(extra.attributes)
    for attribute, constraint in subscription.constraints.items():
        attributes[attribute] = next(
            value for value in range(-4, 5) if constraint.matches(value)
        )
    return Publication(attributes)


def filed(index):
    """The index's row counts per subscription object; asserts that each
    counted object is filed exactly once, under one of its own
    attributes, with its attributes' mask, that every bit is its own
    power of two, and that no empty filing or zero count is left."""
    bits = index._bits
    assert sorted(bits.values()) == [1 << n for n in range(len(bits))]
    homes = Counter()
    for attribute, objects in index._filing.items():
        assert objects, "an attribute with nothing left stays filed"
        for subscription, mask in objects.items():
            assert attribute in subscription.constraints
            assert mask == sum(bits[a] for a in subscription.constraints)
            homes[subscription] += 1
    assert set(homes.values()) <= {1}, "an object filed twice"
    assert homes.keys() == index._rows.keys()
    assert all(count > 0 for count in index._rows.values())
    return Counter(index._rows)


@settings(deadline=None)
@given(st.lists(subscriptions(), min_size=1, max_size=6),
       st.integers(0, 6), st.lists(steps, max_size=40))
def test_match_equals_brute_force_over_the_rows(pool, preload, script):
    index = LinearIndex(memory=SimulatedMemory(CycleClock(), name="table"))
    rows = []
    # A few inserts first, so that matches meet tables of several rows.
    script = [("insert", pick) for pick in range(preload)] + script
    for kind, argument in script:
        bits = dict(index._bits)
        if kind == "witness" and rows:  # a match some row must be in
            pick, extra = argument
            kind, argument = "match", witness(rows[pick % len(rows)], extra)
        if kind == "insert":
            subscription = pool[argument % len(pool)]
            sizes = [len(index._filing.get(attribute, ()))
                     for attribute in subscription.constraints]
            arriving = subscription not in rows
            index.insert(subscription)
            rows.append(subscription)
            if arriving:  # filed where the filing was smallest
                home = list(subscription.constraints)[sizes.index(min(sizes))]
                assert subscription in index._filing[home]
                for attribute in subscription.constraints:
                    if attribute not in bits:
                        bits[attribute] = 1 << len(bits)
        elif kind == "remove" and rows:
            # The table drops the first row holding the id.
            wanted = rows[argument % len(rows)].subscription_id
            position = next(i for i, row in enumerate(rows)
                            if row.subscription_id == wanted)
            assert index.remove(wanted) is rows.pop(position)
        elif kind == "extract":
            assert index.extract_subtrees(argument * index.record_bytes) \
                == rows[:argument]
            del rows[:argument]
        elif kind == "match":
            assert index.match(argument) == {
                row.subscription_id for row in rows if row.matches(argument)
            }
            assert index.visits_last_match == len(rows)
        assert index._bits == bits, "only an arriving object adds bits"
        assert index.subscriptions() == rows
        assert filed(index) == Counter(rows)
