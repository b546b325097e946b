"""Tests for the containment index vs. the linear baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.index import ContainmentIndex
from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock


def c(attribute, op, value):
    return Constraint(attribute, op, value)


def chain_subscriptions():
    """general ⊒ mid ⊒ tight chain on one attribute."""
    general = Subscription("general", [c("x", Operator.LE, 100)])
    mid = Subscription("mid", [c("x", Operator.LE, 50)])
    tight = Subscription("tight", [c("x", Operator.LE, 10)])
    return general, mid, tight


class TestInsertStructure:
    def test_chain_forms_single_root(self):
        index = ContainmentIndex()
        general, mid, tight = chain_subscriptions()
        for sub in (general, mid, tight):
            index.insert(sub)
        assert len(index._roots) == 1
        assert index.depth() == 3
        index.check_invariants()

    def test_reverse_insertion_reparents(self):
        index = ContainmentIndex()
        general, mid, tight = chain_subscriptions()
        for sub in (tight, mid, general):
            index.insert(sub)
        assert len(index._roots) == 1
        assert index._roots[0].subscription.subscription_id == "general"
        index.check_invariants()

    def test_incomparable_subscriptions_are_roots(self):
        index = ContainmentIndex()
        index.insert(Subscription("a", [c("x", Operator.LE, 5)]))
        index.insert(Subscription("b", [c("y", Operator.GE, 5)]))
        assert len(index._roots) == 2

    def test_len_and_database_bytes(self):
        index = ContainmentIndex(record_bytes=256)
        for sub in chain_subscriptions():
            index.insert(sub)
        assert len(index) == 3
        assert index.database_bytes == 768


class TestMatching:
    def test_pruning_skips_subtree(self):
        index = ContainmentIndex()
        general, mid, tight = chain_subscriptions()
        for sub in (general, mid, tight):
            index.insert(sub)
        # x=200 fails the root: only 1 visit despite 3 subscriptions.
        assert index.match(Publication({"x": 200})) == set()
        assert index.visits_last_match == 1

    def test_matching_descends(self):
        index = ContainmentIndex()
        general, mid, tight = chain_subscriptions()
        for sub in (general, mid, tight):
            index.insert(sub)
        assert index.match(Publication({"x": 5})) == {"general", "mid", "tight"}
        assert index.match(Publication({"x": 30})) == {"general", "mid"}
        assert index.match(Publication({"x": 70})) == {"general"}

    def test_empty_index(self):
        assert ContainmentIndex().match(Publication({"x": 1})) == set()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(20, 120), st.integers(1, 8))
    def test_index_equals_naive_property(self, seed, num_subs, num_events):
        """The core correctness property: pruning never changes results."""
        workload = ScbrWorkload(seed=seed, num_attributes=8,
                                containment_fraction=0.5)
        index = ContainmentIndex()
        naive = LinearIndex()
        for subscription in workload.subscriptions(num_subs):
            index.insert(subscription)
            naive.insert(subscription)
        index.check_invariants()
        for publication in workload.publications(num_events):
            assert index.match(publication) == naive.match(publication)

    def test_index_visits_fewer_with_containment_structure(self):
        workload = ScbrWorkload(seed=7, num_attributes=6,
                                containment_fraction=0.7)
        index = ContainmentIndex()
        naive = LinearIndex()
        for subscription in workload.subscriptions(400):
            index.insert(subscription)
            naive.insert(subscription)
        index_visits = naive_visits = 0
        for publication in workload.publications(30):
            index.match(publication)
            naive.match(publication)
            index_visits += index.visits_last_match
            naive_visits += naive.visits_last_match
        assert index_visits < naive_visits


class TestMemoryAccounting:
    def _enclave_memory(self):
        costs = DEFAULT_COSTS.scaled(epc_capacity=1 << 20, llc_capacity=1 << 14)
        return SimulatedMemory(
            CycleClock(), costs, enclave=True, epc=EpcModel(costs), name="scbr"
        )

    def test_insert_allocates_contiguously(self):
        memory = self._enclave_memory()
        index = ContainmentIndex(memory=memory, record_bytes=512)
        for sub in chain_subscriptions():
            index.insert(sub)
        assert memory.allocated_bytes == 3 * 512

    @pytest.mark.parametrize("index_cls", [LinearIndex, ContainmentIndex])
    def test_no_row_lands_on_a_released_memory(self, index_cls):
        memory = self._enclave_memory()
        index = index_cls(memory=memory, record_bytes=512)
        general, mid, _tight = chain_subscriptions()
        index.insert(general)
        memory.release_all()
        with pytest.raises(CapacityError):
            index.insert(mid)
        assert len(index) == 1
        assert memory.resident_bytes == 0
        assert not memory.watermark_exceeded(0.01)

    def test_match_charges_cycles(self):
        memory = self._enclave_memory()
        index = ContainmentIndex(memory=memory)
        for sub in chain_subscriptions():
            index.insert(sub)
        before = memory.clock.now
        index.match(Publication({"x": 5}))
        assert memory.clock.now > before

    def test_enclave_slower_than_native_when_thrashing(self):
        """Miniature Figure 3: same index, two memories."""
        costs = DEFAULT_COSTS.scaled(
            epc_capacity=64 * 4096, llc_capacity=8 * 4096
        )
        clock_native = CycleClock()
        native = SimulatedMemory(clock_native, costs, name="native")
        clock_enclave = CycleClock()
        enclave = SimulatedMemory(
            clock_enclave, costs, enclave=True, epc=EpcModel(costs), name="enc"
        )

        def run(memory, clock):
            workload = ScbrWorkload(seed=3, num_attributes=10)
            index = LinearIndex(memory=memory, record_bytes=512)
            for subscription in workload.subscriptions(1500):  # ~768 KB >> EPC
                index.insert(subscription)
            start = clock.now
            for publication in workload.publications(5):
                index.match(publication)
            return clock.now - start

        native_cycles = run(native, clock_native)
        enclave_cycles = run(enclave, clock_enclave)
        assert enclave_cycles > 5 * native_cycles
