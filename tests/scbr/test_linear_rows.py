"""A flat table evaluates each distinct subscription once, and only
where its first attribute is published; the match set is every row's.

``LinearIndex`` files each row's subscription object under its first
constrained attribute, with the count of rows holding it, and after
charging the scan evaluates only the objects filed under an attribute
the publication carries: a subscription whose first attribute is
missing (or ``None``) cannot match.  Hypothesis drives inserts of shared
objects and of distinct objects that share an id, removes (of a shared
object too), front extractions and matches against brute force over
the rows.  After every step the filing counts exactly the rows holding
each object, and no zero count or empty attribute is left in it.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.naive import LinearIndex
from repro.sgx.memory import SimulatedMemory
from repro.sim.clock import CycleClock

ATTRIBUTES = ("a", "b", "c", "d", "e")
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
    # The order matters: a row is filed under its first attribute.
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                               max_size=3, unique=True))
    return Subscription(
        draw(st.sampled_from(["s0", "s1", "s2"])),  # ids repeat across objects
        [draw(constraints(attribute)) for attribute in attributes],
    )


publications = st.builds(
    Publication,
    st.dictionaries(st.sampled_from(ATTRIBUTES), values | st.none(),
                    max_size=len(ATTRIBUTES)),
)
picks = st.integers(0, 1 << 16)
steps = st.one_of(
    st.tuples(st.just("insert"), picks),
    st.tuples(st.just("remove"), picks),
    st.tuples(st.just("extract"), st.integers(0, 4)),
    st.tuples(st.just("match"), publications),
)


def filed(index):
    """The index's filing, as a count of rows per subscription object."""
    counts = Counter()
    for first, rows in index._by_first.items():
        assert rows, "an attribute with no rows left stays filed"
        for subscription, count in rows.items():
            assert count > 0
            assert next(iter(subscription.constraints)) == first
            counts[subscription] += count
    return counts


@settings(deadline=None)
@given(st.lists(subscriptions(), min_size=1, max_size=6),
       st.lists(steps, max_size=40))
def test_match_equals_brute_force_over_the_rows(pool, script):
    index = LinearIndex(memory=SimulatedMemory(CycleClock(), name="table"))
    rows = []
    for kind, argument in script:
        if kind == "insert":
            subscription = pool[argument % len(pool)]
            index.insert(subscription)
            rows.append(subscription)
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
        assert index.subscriptions() == rows
        assert filed(index) == Counter(rows)
