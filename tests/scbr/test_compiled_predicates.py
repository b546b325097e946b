"""A constraint's carried comparison against its readable definition.

``Subscription.matches`` calls ``constraint.test(candidate, value)``,
the C-level comparison chosen when the constraint was built;
``Constraint.matches`` -- the chain of operator tests -- stays as the
definition.  These tests hold the first to the conjunction of the
second over every operator, int / float / mixed values, range
endpoints, missing attributes and falsy values.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.scbr.filters import Constraint, Operator, Publication, Subscription

ATTRIBUTES = ("a", "b", "c")
ONE_SIDED = [op for op in Operator if op is not Operator.RANGE]
# A small domain so equalities and range endpoints are actually hit;
# 0 and 0.0 are in it (present-but-falsy must not read as missing).
numbers = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0]),
)


@st.composite
def constraints(draw, attribute):
    if draw(st.booleans()):
        low, high = sorted([draw(numbers), draw(numbers)])
        return Constraint.range_between(attribute, low, high)
    return Constraint(attribute, draw(st.sampled_from(ONE_SIDED)),
                      draw(numbers))


@st.composite
def subscriptions(draw):
    chosen = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                           max_size=3, unique=True))
    return Subscription("s", [draw(constraints(a)) for a in chosen], "who")


def reference(subscription, publication):
    """The conjunction of ``Constraint.matches``, attribute by attribute."""
    for attribute, constraint in subscription.constraints.items():
        value = publication.attributes.get(attribute)
        if value is None or not constraint.matches(value):
            return False
    return True


@given(subscriptions(),
       st.dictionaries(st.sampled_from(ATTRIBUTES), numbers))
def test_matches_is_the_conjunction_of_constraint_matches(
        subscription, attributes):
    publication = Publication(attributes)
    assert subscription.matches(publication) is reference(
        subscription, publication
    )


@given(constraints("a"), numbers)
def test_the_carried_test_is_the_operator_s_comparison(constraint, value):
    assert constraint.test(value, constraint.value) == constraint.matches(
        value
    )


@pytest.mark.parametrize("falsy", [0, 0.0])
def test_a_falsy_value_is_present_not_missing(falsy):
    subscription = Subscription(
        "s", [Constraint("a", Operator.EQ, 0),
              Constraint.range_between("b", -1, 0)], "who",
    )
    assert subscription.matches(Publication({"a": falsy, "b": falsy}))
    assert not subscription.matches(Publication({"a": falsy}))
    assert not subscription.matches(Publication({"b": falsy}))


@pytest.mark.parametrize("constraint", [
    Constraint("a", Operator.LT, 3),
    Constraint("a", Operator.GE, 3),
    Constraint.range_between("a", 1, 3),
])
def test_incomparable_values_raise_from_both(constraint):
    with pytest.raises(TypeError):
        constraint.matches("three")
    with pytest.raises(TypeError):
        Subscription("s", [constraint], "who").matches(
            Publication({"a": "three"})
        )


def test_the_test_is_derived_shared_and_not_part_of_equality():
    first = Constraint("a", Operator.LE, 3)
    second = Constraint("a", Operator.LE, 3)
    assert first == second and hash(first) == hash(second)
    assert first.test is second.test  # one callable per operator
    assert "test" not in repr(first)
    assert pickle.loads(pickle.dumps(first)).test is first.test
    with pytest.raises(TypeError):
        Constraint("a", Operator.LE, 3, test=max)
    with pytest.raises(AttributeError):
        first.test = max
