"""Content-based filters and the containment relation.

A :class:`Subscription` is a conjunction of per-attribute
:class:`Constraint` objects.  A :class:`Publication` is an attribute ->
value record.  Subscription *A covers B* (A ⊒ B) when every publication
matching B also matches A; the matching index prunes whole subtrees of
covered (more specific) subscriptions whenever a covering (more
general) one fails -- the "containment relations between filters"
optimisation the paper credits for SCBR's performance.
"""

import enum
from dataclasses import dataclass, field
from operator import eq, ge, gt, le, lt

from repro.errors import ConfigurationError


class Operator(enum.Enum):
    """Comparison operators supported by constraints."""

    EQ = "=="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    RANGE = "[]"


def _between(candidate, bounds):
    low, high = bounds
    return low <= candidate <= high


# The comparison each operator stands for, as ``test(candidate, value)``.
_TESTS = {
    Operator.EQ: eq, Operator.LT: lt, Operator.LE: le,
    Operator.GT: gt, Operator.GE: ge, Operator.RANGE: _between,
}


@dataclass(frozen=True, slots=True)
class Constraint:
    """One predicate over one attribute.

    For :attr:`Operator.RANGE`, ``value`` is an inclusive ``(low,
    high)`` pair (use :meth:`range_between` to construct one).

    ``test`` is the operator's comparison, chosen once here so that
    :meth:`Subscription.matches` calls ``test(candidate, value)`` in C
    instead of re-deciding the operator on every visit; :meth:`matches`
    is the readable definition it must agree with.  It is shared per
    operator (one slot a constraint), derived, and not part of equality.
    """

    attribute: str
    operator: Operator
    value: object
    test: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "test", _TESTS[self.operator])
        if self.operator is Operator.RANGE:
            low, high = self.value  # raises for malformed values
            if low > high:
                raise ConfigurationError(
                    "range low %r exceeds high %r" % (low, high)
                )
            object.__setattr__(self, "value", (low, high))

    @classmethod
    def range_between(cls, attribute, low, high):
        """An inclusive interval constraint ``low <= v <= high``."""
        return cls(attribute, Operator.RANGE, (low, high))

    def matches(self, candidate):
        """Whether ``candidate`` satisfies this predicate."""
        if self.operator is Operator.EQ:
            return candidate == self.value
        if self.operator is Operator.LT:
            return candidate < self.value
        if self.operator is Operator.LE:
            return candidate <= self.value
        if self.operator is Operator.GT:
            return candidate > self.value
        if self.operator is Operator.GE:
            return candidate >= self.value
        low, high = self.value
        return low <= candidate <= high

    def _covers_range(self, other):
        """self covers a RANGE [c, d]."""
        low, high = other.value
        mine = self.operator
        if mine is Operator.LE:
            return high <= self.value
        if mine is Operator.LT:
            return high < self.value
        if mine is Operator.GE:
            return low >= self.value
        if mine is Operator.GT:
            return low > self.value
        if mine is Operator.RANGE:
            my_low, my_high = self.value
            return my_low <= low and high <= my_high
        # EQ covers a range only if it has collapsed to a point.
        return low == high == self.value

    def covers(self, other):
        """Whether every value satisfying ``other`` satisfies ``self``.

        Both constraints must be on the same attribute; constraints on
        different attributes are incomparable.
        """
        if self.attribute != other.attribute:
            return False
        mine, theirs = self.operator, other.operator
        if theirs is Operator.RANGE:
            return self._covers_range(other)
        if mine is Operator.RANGE:
            # Finite intervals never cover one-sided predicates; a
            # point predicate is covered if it falls inside.
            low, high = self.value
            return theirs is Operator.EQ and low <= other.value <= high
        if mine is Operator.EQ:
            return theirs is Operator.EQ and other.value == self.value
        if mine is Operator.LE:
            if theirs is Operator.EQ:
                return other.value <= self.value
            return theirs in (Operator.LE, Operator.LT) and other.value <= self.value
        if mine is Operator.LT:
            if theirs is Operator.EQ:
                return other.value < self.value
            if theirs is Operator.LT:
                return other.value <= self.value
            if theirs is Operator.LE:
                return other.value < self.value
            return False
        if mine is Operator.GE:
            if theirs is Operator.EQ:
                return other.value >= self.value
            return theirs in (Operator.GE, Operator.GT) and other.value >= self.value
        # mine is GT
        if theirs is Operator.EQ:
            return other.value > self.value
        if theirs is Operator.GT:
            return other.value >= self.value
        if theirs is Operator.GE:
            return other.value > self.value
        return False


_set = object.__setattr__


class Subscription:
    """A conjunction of constraints, one per attribute.

    Immutable once built.  ``wire_memo`` is the canonical bytes of this
    subscription, ``None`` until
    :func:`repro.scbr.messages.serialize_subscription` first encodes it
    and write-once after; a checkpoint or a migration then reuses the
    bytes instead of re-encoding a subscription that cannot have changed.
    ``constraints`` stays a plain dict because :meth:`matches` iterates
    it on the hottest path there is; ``tests/test_subscription_immutable.py``
    is what stops code from storing through it.
    """

    __slots__ = ("subscription_id", "subscriber", "constraints", "wire_memo")

    def __init__(self, subscription_id, constraints, subscriber=None):
        _set(self, "subscription_id", subscription_id)
        _set(self, "subscriber", subscriber)
        mapping = {}
        for constraint in constraints:
            if constraint.attribute in mapping:
                raise ConfigurationError(
                    "duplicate constraint on attribute %r" % constraint.attribute
                )
            mapping[constraint.attribute] = constraint
        if not mapping:
            raise ConfigurationError("subscription needs at least one constraint")
        _set(self, "constraints", mapping)
        _set(self, "wire_memo", None)

    def __setattr__(self, name, value):
        if name != "wire_memo" or self.wire_memo is not None:
            raise AttributeError(
                "a Subscription is immutable: cannot set %r" % name
            )
        _set(self, name, value)

    def __repr__(self):
        parts = ", ".join(
            "%s %s %s" % (c.attribute, c.operator.value, c.value)
            for c in self.constraints.values()
        )
        return "Subscription(%r, %s)" % (self.subscription_id, parts)

    def matches(self, publication):
        """Whether ``publication`` satisfies every constraint."""
        attributes = publication.attributes
        for attribute, constraint in self.constraints.items():
            value = attributes.get(attribute)
            if value is None or not constraint.test(value, constraint.value):
                return False
        return True

    def covers(self, other):
        """Containment test: A ⊒ B.

        A's constraints must be a (pointwise weaker) subset of B's:
        any attribute A constrains, B must constrain at least as
        tightly; attributes A does not mention are unconstrained in A.
        """
        for attribute, constraint in self.constraints.items():
            other_constraint = other.constraints.get(attribute)
            if other_constraint is None:
                return False
            if not constraint.covers(other_constraint):
                return False
        return True

    def footprint_estimate(self):
        """Approximate in-memory bytes of this subscription's record."""
        return 48 + 40 * len(self.constraints)


@dataclass(frozen=True)
class Publication:
    """An event: attribute -> numeric value, plus an opaque payload."""

    attributes: dict
    payload: bytes = b""

    def canonical_bytes(self):
        """Stable serialisation (for encryption and signing)."""
        pieces = []
        for attribute in sorted(self.attributes):
            pieces.append(
                ("%s=%r" % (attribute, self.attributes[attribute])).encode("utf-8")
            )
        return b"|".join(pieces) + b"#" + self.payload
