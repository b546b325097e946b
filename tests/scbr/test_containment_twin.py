"""The containment walk against the walk it replaced.

``ContainmentIndex.match`` evaluates each node's flat predicate inline
and charges the visits through ``SimulatedMemory.scan_keys`` with keys
derived at insert.  :class:`TwinIndex` below is the index as it was
before: the same forest code, but each visit calls
``Subscription.matches`` and records a region, and the walk is charged
by ``SimulatedMemory.scan`` over those regions.  Hypothesis drives both
through the same inserts, removes, subtree extractions, matches and
foreign allocations, on two platforms built alike: a tiny EPC and LLC
so that pages fault and lines are evicted, the index's enclave memory,
and a second enclave memory on the same caches that touches its own
records between steps.  Record sizes misalign the 64-byte hot spans,
so a span may cross a line or a page.  After every step the match
sets, the visit counts, every ``MemoryStats`` field of both memories,
the EPC's loads and faults, the clock and both LRUs' resident keys *in
order* must be equal.
"""

from dataclasses import astuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import CapacityError
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.index import EVAL_CYCLES, HOT_BYTES, ContainmentIndex
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.memory import EpcModel, LlcModel, SimulatedMemory
from repro.sim.clock import CycleClock

LINE = 64
PAGE = 256


class TwinIndex:
    """The containment index as it was: one region per record, one
    ``Subscription.matches`` call per visit, one ``scan`` per walk."""

    def __init__(self, memory, record_bytes):
        self.memory = memory
        self.record_bytes = record_bytes
        self._roots = []
        self._nodes = {}
        self._parents = {}
        self.visits_last_match = 0

    def __len__(self):
        return len(self._nodes)

    def insert(self, subscription):
        node = _TwinNode(subscription,
                         self.memory.allocate(self.record_bytes))
        siblings = self._roots
        parent = None
        descending = True
        while descending:
            descending = False
            for candidate in siblings:
                if candidate.subscription.covers(subscription):
                    siblings = candidate.children
                    parent = candidate
                    descending = True
                    break
        covered = [c for c in siblings if subscription.covers(c.subscription)]
        for child in covered:
            siblings.remove(child)
            node.children.append(child)
            self._parents[child.subscription.subscription_id] = node
        siblings.append(node)
        self._nodes[subscription.subscription_id] = node
        self._parents[subscription.subscription_id] = parent

    def remove(self, subscription_id):
        node = self._nodes.pop(subscription_id)
        parent = self._parents.pop(subscription_id)
        siblings = self._roots if parent is None else parent.children
        siblings.remove(node)
        for child in node.children:
            siblings.append(child)
            self._parents[child.subscription.subscription_id] = parent
        node.children = []
        self.memory.free(node.region)
        return node.subscription

    def match(self, publication):
        matched = []
        visited = []
        stack = list(self._roots)
        while stack:
            node = stack.pop()
            visited.append(node.region)
            if node.subscription.matches(publication):
                matched.append(node.subscription.subscription_id)
                stack.extend(node.children)
        self.memory.scan(visited, HOT_BYTES, EVAL_CYCLES)
        self.visits_last_match = len(visited)
        return set(matched)

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
            pre_order = []
            while stack:
                node = stack.pop()
                pre_order.append(node)
                stack.extend(reversed(node.children))
            for node in pre_order:
                subscription_id = node.subscription.subscription_id
                del self._nodes[subscription_id]
                del self._parents[subscription_id]
                self.memory.free(node.region)
                node.children = []
                moved_bytes += self.record_bytes
                extracted.append(node.subscription)
        return extracted


class _TwinNode:
    def __init__(self, subscription, region):
        self.subscription = subscription
        self.children = []
        self.region = region


class Platform:
    """Clock, tiny LLC and EPC, the index's memory and a neighbour."""

    def __init__(self, index_cls, record_bytes, pages, lines):
        costs = DEFAULT_COSTS.scaled(
            line_size=LINE, page_size=PAGE, llc_capacity=lines * LINE,
            epc_capacity=pages * PAGE, epc_metadata_fraction=0.0,
        )
        self.clock = CycleClock()
        self.epc = EpcModel(costs)
        self.llc = LlcModel(costs)
        self.memory, self.neighbour = (
            SimulatedMemory(self.clock, costs, enclave=True, epc=self.epc,
                            llc=self.llc, name=name)
            for name in ("index", "neighbour")
        )
        self.index = index_cls(memory=self.memory, record_bytes=record_bytes)
        self.records = [self.neighbour.allocate(3 * LINE // 2)
                        for _ in range(12)]

    def state(self):
        return (
            self.clock.now,
            astuple(self.memory.stats),
            astuple(self.neighbour.stats),
            self.memory.resident_bytes,
            self.epc.loads,
            self.epc.faults,
            self.epc.resident_page_keys(),
            self.llc.keys(),
            len(self.index),
            self.index.visits_last_match,
        )


ATTRIBUTES = ("a", "b", "c")
values = st.integers(0, 6)


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
                           max_size=3, unique=True))
    return [draw(constraints(attribute)) for attribute in chosen]


publications = st.dictionaries(st.sampled_from(ATTRIBUTES), values)


class ContainmentTwin(RuleBasedStateMachine):
    @initialize(record_bytes=st.sampled_from([64, 100, 200, 320, 512]),
                pages=st.sampled_from([1, 3]), lines=st.sampled_from([2, 8]))
    def setup(self, record_bytes, pages, lines):
        self.real, self.twin = (
            Platform(cls, record_bytes, pages, lines)
            for cls in (ContainmentIndex, TwinIndex)
        )
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
            side.index.insert(subscription)

    @rule(pick=st.integers(0, 1 << 16))
    def remove(self, pick):
        if self.ids:
            subscription_id = self.ids.pop(pick % len(self.ids))
            self._both(lambda side: side.index.remove(subscription_id))

    @rule(records=st.sampled_from([0, 1, 3, 1 << 10]))
    def extract_subtrees(self, records):
        target = records * self.real.index.record_bytes
        moved = self._both(lambda side: [
            subscription.subscription_id
            for subscription in side.index.extract_subtrees(target)
        ])
        self.ids = [sid for sid in self.ids if sid not in moved]

    @rule(attributes=publications)
    def match(self, attributes):
        publication = Publication(attributes)
        self._both(lambda side: side.index.match(publication))

    @rule(size=st.sampled_from([1, 7, 64, 100]))
    def foreign_allocation(self, size):
        """Something else allocates in the index's memory: the next
        record starts off its predecessor's alignment."""
        self._both(lambda side: side.memory.reserve(size))

    @rule(chosen=st.lists(st.integers(0, 11), max_size=6))
    def neighbour_touches(self, chosen):
        self._both(lambda side: side.neighbour.scan(
            [side.records[pick] for pick in chosen], compute_cycles=9,
        ))

    @invariant()
    def every_observable_agrees(self):
        if hasattr(self, "real"):
            assert self.real.state() == self.twin.state()


TestContainmentTwin = ContainmentTwin.TestCase
TestContainmentTwin.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)


def test_a_walk_longer_than_a_run_is_charged_as_one(monkeypatch):
    # Every record a root, every publication visiting all of them: the
    # walk flushes its keys to scan_keys every few visits, and must
    # still charge exactly what one scan of the same regions does.
    import repro.scbr.index as index_module

    monkeypatch.setattr(index_module, "_RUN", 5)
    real, twin = (Platform(cls, 200, 3, 8)
                  for cls in (ContainmentIndex, TwinIndex))
    for number in range(23):
        subscription = Subscription(
            "r%02d" % number, [Constraint("a", Operator.EQ, number)]
        )
        for side in (real, twin):
            side.index.insert(subscription)
    for value in (3, 30):
        publication = Publication({"a": value})
        assert real.index.match(publication) == twin.index.match(publication)
        assert real.state() == twin.state()
    assert real.index.visits_last_match == 23
    assert real.memory.stats.cycles_compute == 2 * 23 * 150


def test_a_released_memory_refuses_the_walk():
    real = Platform(ContainmentIndex, 100, 3, 8)
    real.index.insert(Subscription("s", [Constraint("a", Operator.EQ, 1)]))
    real.memory.release_all()
    with pytest.raises(CapacityError):
        real.index.match(Publication({"a": 1}))


def test_the_walk_charges_what_scan_charges_for_the_same_regions():
    # A plain, non-hypothesis anchor: misaligned records, a span
    # crossing lines and pages, and a full walk of both platforms.
    real, twin = (Platform(cls, 200, 1, 2)
                  for cls in (ContainmentIndex, TwinIndex))
    subscriptions = [
        Subscription("g", [Constraint("a", Operator.GE, 1)]),
        Subscription("g2", [Constraint("a", Operator.GE, 2)]),
        Subscription("e", [Constraint("a", Operator.EQ, 4),
                           Constraint("b", Operator.LT, 3)]),
    ]
    for subscription in subscriptions:
        for side in (real, twin):
            side.index.insert(subscription)
    for attributes in ({"a": 4, "b": 1}, {"a": 1}, {}):
        publication = Publication(attributes)
        assert real.index.match(publication) == twin.index.match(publication)
        assert real.state() == twin.state()
    assert real.epc.faults > 0
