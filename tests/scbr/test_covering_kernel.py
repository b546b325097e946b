"""``Subscription.covers`` reads covering off each constraint's derived row.

Every constraint carries ``covering``: its operator's table of covering
comparisons, keyed by the other constraint's ``test``.  The subscription
kernel makes one lookup and one comparison per attribute;
``Constraint.covers`` keeps the operator branches as the readable
definition.  These tests hold the kernel to that definition on every
one of the 36 operator pairs, over ints, floats and both mixed, with
equal endpoints and one-point ranges drawn often, and on multi-attribute
subscriptions where an attribute may be missing on either side.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scbr.filters import Constraint, Operator, Subscription

# A small pool, so equal values (and equal endpoints) come up often;
# ints and their float twins so mixed comparisons do too.
VALUES = (-3, -1, 0, 1, 2, 5, -1.0, 0.0, 1.0, 2.0, 0.5, 1.5, -2.5)
values = st.one_of(
    st.sampled_from(VALUES),
    st.integers(-10, 10),
    st.floats(-10, 10, allow_nan=False),
)


@st.composite
def constraints(draw, attribute, operator=None):
    if operator is None:
        operator = draw(st.sampled_from(list(Operator)))
    if operator is Operator.RANGE:
        low = draw(values)
        high = draw(st.one_of(st.just(low), values))  # one-point ranges
        low, high = sorted((low, high))
        return Constraint.range_between(attribute, low, high)
    return Constraint(attribute, operator, draw(values))


def reference_covers(mine, theirs):
    for attribute, constraint in mine.constraints.items():
        other = theirs.constraints.get(attribute)
        if other is None or not constraint.covers(other):
            return False
    return True


@pytest.mark.parametrize("theirs", list(Operator), ids=lambda op: op.name)
@pytest.mark.parametrize("mine", list(Operator), ids=lambda op: op.name)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_operator_pair_agrees_with_the_definition(mine, theirs, data):
    first = data.draw(constraints("a", mine))
    second = data.draw(constraints("a", theirs))
    expected = first.covers(second)
    assert Subscription("x", [first]).covers(Subscription("y", [second])) \
        is expected


@pytest.mark.parametrize("mine", list(Operator), ids=lambda op: op.name)
def test_equal_endpoints_on_every_pair(mine):
    # Exhaustive over a grid with shared endpoints, both int and float.
    grid = (0, 1, 2, 1.0, 0.5)
    for theirs in Operator:
        for a in grid:
            for b in grid:
                first = (Constraint.range_between("a", *sorted((a, b)))
                         if mine is Operator.RANGE else Constraint("a", mine, a))
                second = (Constraint.range_between("a", *sorted((b, a)))
                          if theirs is Operator.RANGE
                          else Constraint("a", theirs, b))
                assert Subscription("x", [first]).covers(
                    Subscription("y", [second])
                ) is first.covers(second), (first, second)


@st.composite
def subscriptions(draw):
    attributes = draw(st.lists(
        st.sampled_from(("a", "b", "c", "d")), min_size=1, max_size=4,
        unique=True,
    ))
    return Subscription(
        "s", [draw(constraints(attribute)) for attribute in attributes]
    )


@given(subscriptions(), subscriptions())
@settings(max_examples=200, deadline=None)
def test_conjunctions_agree_with_the_definition(mine, theirs):
    assert mine.covers(theirs) is reference_covers(mine, theirs)


def test_the_row_is_derived_shared_and_not_part_of_equality():
    first = Constraint("a", Operator.GT, 3)
    second = Constraint("a", Operator.GT, 3.0)
    assert first == second
    assert first.covering is second.covering  # one row per operator
    assert first.covering is not Constraint("a", Operator.GE, 3).covering
    assert "covering" not in repr(first)
    with pytest.raises(TypeError):
        Constraint("a", Operator.GT, 3, covering={})
    with pytest.raises(AttributeError):
        first.covering = {}


def test_incomparable_values_raise_from_both():
    mine = Constraint("a", Operator.LE, 3)
    theirs = Constraint("a", Operator.LT, "three")
    with pytest.raises(TypeError):
        mine.covers(theirs)
    with pytest.raises(TypeError):
        Subscription("x", [mine]).covers(Subscription("y", [theirs]))
