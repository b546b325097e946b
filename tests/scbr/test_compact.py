"""Tests for the hot/cold enclave-efficient matcher."""

import pytest

from repro.errors import ConfigurationError
from repro.scbr.compact import HotColdIndex
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.index import HOT_BYTES
from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock


def enclave_memory(costs=DEFAULT_COSTS, name="m"):
    clock = CycleClock()
    return SimulatedMemory(clock, costs, enclave=True, epc=EpcModel(costs),
                           name=name), clock


class TestCorrectness:
    def test_matches_equal_linear_index(self):
        workload = ScbrWorkload(seed=81, num_attributes=10)
        compact = HotColdIndex()
        linear = LinearIndex()
        for subscription in workload.subscriptions(300):
            compact.insert(subscription)
            linear.insert(subscription)
        for publication in workload.publications(30):
            assert compact.match(publication) == linear.match(publication)

    def test_remove(self):
        workload = ScbrWorkload(seed=82)
        index = HotColdIndex()
        subscriptions = workload.subscriptions(5)
        for subscription in subscriptions:
            index.insert(subscription)
        index.remove(subscriptions[2].subscription_id)
        assert len(index) == 4
        with pytest.raises(ConfigurationError):
            index.remove("ghost")

    def test_record_geometry_validated(self):
        with pytest.raises(ConfigurationError):
            HotColdIndex(record_bytes=32, hot_bytes=64)

    def test_footprint_accounting(self):
        index = HotColdIndex(record_bytes=512, hot_bytes=64)
        workload = ScbrWorkload(seed=83)
        for subscription in workload.subscriptions(100):
            index.insert(subscription)
        assert index.database_bytes == 100 * 512
        assert index.hot_bytes_total == 100 * 64


class TestRemoveFrees:
    def test_removed_record_leaves_the_resident_set_epc_and_llc(self):
        costs = DEFAULT_COSTS
        memory, _clock = enclave_memory(name="hc")
        # A cold part of three pages holds at least two whole ones.
        record_bytes = HOT_BYTES + 3 * costs.page_size
        index = HotColdIndex(memory=memory, record_bytes=record_bytes)
        low = Subscription("low", [Constraint("x", Operator.LE, 10)])
        high = Subscription("high", [Constraint("x", Operator.GE, 90)])
        index.insert(low)
        index.insert(high)
        assert index.match(Publication({"x": 5})) == {"low"}  # reads cold
        _subscription, hot, cold = index._entries[0]
        cold_pages = {
            ("hc", page)
            for page in range(-(-cold.base // costs.page_size),
                              cold.end // costs.page_size)
        }
        assert len(cold_pages) >= 2
        assert cold_pages <= set(memory.epc.resident_page_keys())
        hot_line = ("hc", hot.base // costs.line_size)
        assert hot_line in memory.llc.keys()
        resident = memory.resident_bytes

        index.remove("low")
        assert memory.resident_bytes == resident - record_bytes
        assert not cold_pages & set(memory.epc.resident_page_keys())
        assert hot_line not in memory.llc.keys()
        assert index.match(Publication({"x": 95})) == {"high"}


class TestArenaLayout:
    def test_hot_arena_blocks_page_aligned_and_dense(self):
        memory, _clock = enclave_memory()
        index = HotColdIndex(memory=memory)
        workload = ScbrWorkload(seed=84)
        for subscription in workload.subscriptions(130):
            index.insert(subscription)
        hot_regions = [entry[1] for entry in index._entries]
        # First slot of each 64-slot block is page aligned.
        assert hot_regions[0].base % DEFAULT_COSTS.page_size == 0
        assert hot_regions[64].base % DEFAULT_COSTS.page_size == 0
        # Slots within a block are contiguous.
        for first, second in zip(hot_regions, hot_regions[1:63]):
            assert second.base == first.base + 64

    def test_cold_read_only_on_match(self):
        memory, _clock = enclave_memory()
        index = HotColdIndex(memory=memory)
        workload = ScbrWorkload(seed=85, num_attributes=8)
        for subscription in workload.subscriptions(200):
            index.insert(subscription)
        publication = workload.publications(1)[0]
        matched = index.match(publication)
        assert index.cold_reads_last_match == len(matched)
        assert index.visits_last_match == 200


class TestPagingAvoidance:
    def test_no_thrashing_beyond_nominal_epc(self):
        """A logical DB over the EPC limit no longer pages."""
        costs = DEFAULT_COSTS
        total_records = 120 * 1024 * 1024 // 512  # 120 MB logical > EPC

        workload = ScbrWorkload(seed=86, num_attributes=30)
        pool = workload.subscriptions(2048)
        publications = workload.publications(3)

        def run(index_cls):
            memory, clock = enclave_memory(name=index_cls.__name__)
            index = index_cls(memory=memory, record_bytes=512)
            for i in range(total_records):
                index.insert(pool[i % len(pool)])
            index.match(publications[0])  # warm up
            faults_before = memory.epc.faults
            start = clock.now
            for publication in publications[1:]:
                index.match(publication)
            return clock.now - start, memory.epc.faults - faults_before

        baseline_cycles, baseline_faults = run(LinearIndex)
        compact_cycles, compact_faults = run(HotColdIndex)
        assert baseline_faults > 10_000          # the baseline thrashes
        # Remaining compact faults are cold reads for actual matches
        # (one per matching record), not scan thrashing.
        assert compact_faults < baseline_faults / 20
        assert compact_cycles < baseline_cycles / 3
