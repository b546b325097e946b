"""The bucketed forest build against the linear one it replaced.

``ContainmentIndex.insert`` finds the root a newcomer descends into, and
the roots a new root covers, in buckets of roots keyed by attribute set
(a root can cover only a subscription constraining every attribute it
does).  :class:`LinearForest` below is the insert as it was: every level,
the roots included, scanned in order with ``Subscription.covers``.
Hypothesis drives both through the same inserts, removes, subtree
extractions, shard restores (``subscriptions()`` re-inserted into a
fresh index, as ``shard_snapshot`` / ``shard_restore`` do) and
``covers_any_root`` probes, over five attributes with small values so
that covering is common and both ways of finding a root's buckets (its
sub-masks, or every bucket when those are fewer) run.  After every step
the ``_roots`` order, every parent and every child list must be
identical, and ``check_invariants`` (which also holds the buckets to
``_roots``) must pass.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.scbr.filters import Constraint, Operator, Subscription
from repro.scbr.index import DEFAULT_RECORD_BYTES, ContainmentIndex


class LinearForest:
    """The forest as it was: each level, roots included, scanned in order."""

    record_bytes = DEFAULT_RECORD_BYTES

    def __init__(self):
        self._roots = []
        self._nodes = {}

    def insert(self, subscription):
        node = _LinearNode(subscription)
        siblings = self._roots
        descending = True
        while descending:
            descending = False
            for candidate in siblings:
                if candidate.subscription.covers(subscription):
                    siblings = candidate.children
                    node.parent = candidate
                    descending = True
                    break
        covered = [c for c in siblings if subscription.covers(c.subscription)]
        for child in covered:
            siblings.remove(child)
            child.parent = node
        node.children = covered
        siblings.append(node)
        self._nodes[subscription.subscription_id] = node

    def remove(self, subscription_id):
        node = self._nodes.pop(subscription_id)
        parent = node.parent
        siblings = self._roots if parent is None else parent.children
        siblings.remove(node)
        for child in node.children:
            siblings.append(child)
            child.parent = parent
        return node.subscription

    def covers_any_root(self, subscription):
        return any(root.subscription.covers(subscription)
                   for root in self._roots)

    def subscriptions(self):
        result = []
        stack = list(self._roots)
        while stack:
            node = stack.pop()
            result.append(node.subscription)
            stack.extend(node.children)
        return result

    def _subtree_size(self, node):
        count = 0
        stack = [node]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count

    def extract_subtrees(self, target_bytes):
        extracted = []
        moved_bytes = 0
        order = sorted(self._roots, key=lambda node: (
            -self._subtree_size(node), node.subscription.subscription_id,
        ))
        for root in order:
            if moved_bytes >= target_bytes:
                break
            self._roots.remove(root)
            stack = [root]
            while stack:
                node = stack.pop()
                stack.extend(reversed(node.children))
                del self._nodes[node.subscription.subscription_id]
                moved_bytes += self.record_bytes
                extracted.append(node.subscription)
        return extracted


class _LinearNode:
    def __init__(self, subscription):
        self.subscription = subscription
        self.parent = None
        self.children = []


def shape(index):
    """The forest node for node: root order, and per node its parent
    and its children in order."""
    def ids(nodes):
        return [node.subscription.subscription_id for node in nodes]

    return ids(index._roots), {
        subscription_id: (
            node.parent and node.parent.subscription.subscription_id,
            ids(node.children),
        )
        for subscription_id, node in index._nodes.items()
    }


ATTRIBUTES = ("a", "b", "c", "d", "e")
values = st.integers(0, 4)


@st.composite
def constraints(draw, attribute):
    operator = draw(st.sampled_from(list(Operator)))
    if operator is Operator.RANGE:
        low, high = sorted((draw(values), draw(values)))
        return Constraint.range_between(attribute, low, high)
    return Constraint(attribute, operator, draw(values))


@st.composite
def predicates(draw):
    chosen = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                           max_size=len(ATTRIBUTES), unique=True))
    return [draw(constraints(attribute)) for attribute in chosen]


class ForestTwin(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.real = ContainmentIndex()
        self.twin = LinearForest()
        self.ids = []
        self.serial = 0

    def _both(self, call):
        results = [call(side) for side in (self.real, self.twin)]
        assert results[0] == results[1]
        return results[0]

    @rule(constraints=predicates())
    def insert(self, constraints):
        subscription = Subscription("s%03d" % self.serial, constraints)
        self.serial += 1
        self.ids.append(subscription.subscription_id)
        for side in (self.real, self.twin):
            side.insert(subscription)

    @rule(pick=st.integers(0, 1 << 16))
    def remove(self, pick):
        if self.ids:
            subscription_id = self.ids.pop(pick % len(self.ids))
            self._both(lambda side: side.remove(subscription_id))

    @rule(records=st.sampled_from([0, 1, 3, 1 << 10]))
    def extract_subtrees(self, records):
        target = records * self.real.record_bytes
        moved = self._both(lambda side: [
            subscription.subscription_id
            for subscription in side.extract_subtrees(target)
        ])
        self.ids = [sid for sid in self.ids if sid not in moved]

    @rule()
    def restore(self):
        order = self._both(lambda side: side.subscriptions())
        self.real = ContainmentIndex()
        self.twin = LinearForest()
        for subscription in order:
            for side in (self.real, self.twin):
                side.insert(subscription)

    @rule(constraints=predicates())
    def covers_any_root(self, constraints):
        probe = Subscription("probe", constraints)
        self._both(lambda side: side.covers_any_root(probe))

    @invariant()
    def the_forests_are_identical(self):
        if hasattr(self, "real"):
            assert shape(self.real) == shape(self.twin)
            assert self.real.check_invariants()


TestForestTwin = ForestTwin.TestCase
TestForestTwin.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None
)


def test_a_wide_seeded_forest_builds_as_it_did():
    # A plain anchor beside the machine: a wide many-attribute
    # workload, then the removal of every third subscription.
    from repro.scbr.workload import ScbrWorkload

    pool = ScbrWorkload(seed=30, num_attributes=20).subscriptions(1500)
    real, twin = ContainmentIndex(), LinearForest()
    for subscription in pool:
        real.insert(subscription)
        twin.insert(subscription)
    assert shape(real) == shape(twin)
    assert len(real._roots) > 100
    for subscription in pool[::3]:
        real.remove(subscription.subscription_id)
        twin.remove(subscription.subscription_id)
    assert shape(real) == shape(twin)
    assert real.check_invariants()
