"""The two facts both matchers' attribute-set shortcuts rest on.

``LinearIndex.match`` evaluates only subscriptions whose constrained
attributes the publication all carries, and ``ContainmentIndex.insert``
looks for coverers only among roots whose attribute set is a subset of
the newcomer's (and for covered roots only among supersets).  That is
sound exactly when

- ``a.covers(b)`` implies ``a.constraints.keys() <= b.constraints.keys()``,
- ``s.matches(p)`` implies ``s.constraints.keys() <= p.attributes.keys()``.

Hypothesis checks both over every operator (EQ and one-point RANGEs
drawn often, ints and floats mixed), over subscriptions on overlapping
attribute sets, and over publications that may value an attribute
``None``.  Each property also runs an explicit example that holds its
premise, so neither can pass vacuously.
"""

from hypothesis import example, given, settings, strategies as st

from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from tests.scbr.test_covering_kernel import constraints, values

ATTRIBUTES = ("a", "b", "c", "d")


@st.composite
def subscriptions(draw):
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                               max_size=len(ATTRIBUTES), unique=True))
    return Subscription(
        "s", [draw(constraints(attribute)) for attribute in attributes]
    )


@st.composite
def covering_pairs(draw):
    """A pair that often covers: the second tightens or copies the
    first's constraints and may add attributes of its own."""
    first = draw(subscriptions())
    if draw(st.booleans()):
        return first, draw(subscriptions())
    tightened = [
        draw(st.sampled_from([constraint, draw(constraints(attribute))]))
        for attribute, constraint in first.constraints.items()
    ]
    dropped = draw(st.integers(0, len(tightened)))
    extra = [draw(constraints(attribute)) for attribute in ATTRIBUTES
             if attribute not in first.constraints and draw(st.booleans())]
    kept = tightened[:dropped] + tightened[dropped + 1:] + extra
    return first, Subscription("t", kept or tightened)


publications = st.builds(
    Publication,
    st.dictionaries(st.sampled_from(ATTRIBUTES), values | st.none()),
)

POINT = Subscription("p", [Constraint.range_between("a", 1, 1),
                           Constraint("b", Operator.EQ, 2)])


@given(covering_pairs())
@example((Subscription("e", [Constraint("a", Operator.EQ, 1)]), POINT))
@settings(max_examples=400, deadline=None)
def test_a_coverer_constrains_no_attribute_the_covered_leaves_free(pair):
    mine, theirs = pair
    if mine.covers(theirs):
        assert mine.constraints.keys() <= theirs.constraints.keys()


@given(subscriptions(), publications)
@example(POINT, Publication({"a": 1, "b": 2.0, "c": None}))
@settings(max_examples=400, deadline=None)
def test_a_match_needs_every_constrained_attribute(subscription, publication):
    if subscription.matches(publication):
        assert subscription.constraints.keys() <= publication.attributes.keys()


def test_the_examples_hold_the_premises():
    assert Subscription("e", [Constraint("a", Operator.EQ, 1)]).covers(POINT)
    assert POINT.matches(Publication({"a": 1, "b": 2.0, "c": None}))
