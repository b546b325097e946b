"""Tests for the LLC/EPC memory hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError
from repro.sgx.costs import MemoryCosts
from repro.sgx.memory import EpcModel, LlcModel, SimulatedMemory, _LruSet
from repro.sim.clock import CycleClock


def tiny_costs(**overrides):
    """Small geometry so cache effects are testable directly."""
    defaults = dict(
        llc_hit_cycles=1,
        dram_cycles=10,
        mee_read_cycles=60,
        page_fault_cycles=1000,
        transition_cycles=100,
        line_size=64,
        page_size=256,
        llc_capacity=4 * 64,       # 4 lines
        epc_capacity=4 * 256,      # 4 raw pages
        epc_metadata_fraction=0.25,  # -> 3 usable pages
    )
    defaults.update(overrides)
    return MemoryCosts(**defaults)


def native_memory(costs=None):
    return SimulatedMemory(CycleClock(), costs or tiny_costs(), enclave=False)


def enclave_memory(costs=None):
    costs = costs or tiny_costs()
    return SimulatedMemory(
        CycleClock(), costs, enclave=True, epc=EpcModel(costs), name="e"
    )


class TestLruSet:
    def test_hit_and_miss(self):
        lru = _LruSet(2)
        assert not lru.touch("a")
        assert lru.touch("a")

    def test_eviction_order(self):
        lru = _LruSet(2)
        lru.touch("a")
        lru.touch("b")
        lru.touch("a")      # refresh a; b is now LRU
        lru.touch("c")      # evicts b
        assert "a" in lru
        assert "b" not in lru
        assert "c" in lru

    def test_capacity_bound(self):
        lru = _LruSet(3)
        for key in range(100):
            lru.touch(key)
        assert len(lru) == 3

    def test_invalid_capacity(self):
        with pytest.raises(CapacityError):
            _LruSet(0)

    @given(st.lists(st.integers(0, 20), max_size=200), st.integers(1, 8))
    def test_size_never_exceeds_capacity(self, keys, capacity):
        lru = _LruSet(capacity)
        for key in keys:
            lru.touch(key)
            assert len(lru) <= capacity

    @given(st.lists(st.integers(0, 5), max_size=100))
    def test_working_set_within_capacity_always_hits_after_warmup(self, keys):
        lru = _LruSet(6)
        for key in range(6):
            lru.touch(key)
        for key in keys:
            assert lru.touch(key)


class TestAllocation:
    def test_bump_allocation_contiguous(self):
        mem = native_memory()
        a = mem.allocate(100, "a")
        b = mem.allocate(50, "b")
        assert a.base == 0
        assert b.base == 100
        assert mem.allocated_bytes == 150

    def test_aligned_allocation(self):
        costs = tiny_costs()
        mem = native_memory(costs)
        mem.allocate(10)
        region = mem.allocate_aligned(10)
        assert region.base % costs.page_size == 0

    def test_zero_allocation_rejected(self):
        with pytest.raises(CapacityError):
            native_memory().allocate(0)

    def test_region_slice(self):
        mem = native_memory()
        region = mem.allocate(100)
        sub = region.slice(10, 20)
        assert sub.base == 10
        assert sub.size == 20

    def test_region_slice_bounds(self):
        region = native_memory().allocate(100)
        with pytest.raises(CapacityError):
            region.slice(90, 20)


class TestNativeAccess:
    def test_first_access_misses_then_hits(self):
        costs = tiny_costs()
        mem = native_memory(costs)
        region = mem.allocate(costs.line_size)
        first = mem.access(region)
        second = mem.access(region)
        assert first == costs.dram_cycles
        assert second == costs.llc_hit_cycles
        assert mem.stats.llc_misses == 1
        assert mem.stats.llc_hits == 1

    def test_multi_line_access_cost(self):
        costs = tiny_costs()
        mem = native_memory(costs)
        region = mem.allocate(costs.line_size * 3)
        assert mem.access(region) == 3 * costs.dram_cycles

    def test_clock_charged(self):
        costs = tiny_costs()
        mem = native_memory(costs)
        region = mem.allocate(costs.line_size)
        mem.access(region)
        assert mem.clock.now == costs.dram_cycles

    def test_out_of_bounds_access(self):
        mem = native_memory()
        region = mem.allocate(10)
        with pytest.raises(CapacityError):
            mem.access(region, offset=5, size=10)

    def test_zero_size_access_free(self):
        mem = native_memory()
        region = mem.allocate(10)
        assert mem.access(region, size=0) == 0
        assert mem.access(region, offset=region.size) == 0
        assert mem.stats.accesses == 0

    def test_start_outside_the_region_rejected(self):
        # Used to return 0 as if nothing had been asked for.
        mem = native_memory()
        region = mem.allocate(10)
        for offset in (region.size + 100, -1):
            with pytest.raises(CapacityError):
                mem.access(region, offset=offset)
            with pytest.raises(CapacityError):
                mem.access(region, offset=offset, size=0)
        assert mem.clock.now == 0

    def test_negative_size_rejected(self):
        mem = native_memory()
        region = mem.allocate(10)
        with pytest.raises(CapacityError):
            mem.access(region, size=-5)
        with pytest.raises(CapacityError):
            mem.scan([region], -5)
        assert mem.clock.now == 0

    def test_no_page_faults_outside_enclave(self):
        costs = tiny_costs()
        mem = native_memory(costs)
        big = mem.allocate(costs.epc_capacity * 4)
        mem.access(big)
        assert mem.stats.page_faults == 0

    def test_compute_charges_clock_only(self):
        mem = native_memory()
        mem.compute(500)
        assert mem.clock.now == 500
        assert mem.stats.cycles_compute == 500
        assert mem.stats.cycles_memory == 0


class TestEnclaveAccess:
    def test_requires_epc(self):
        with pytest.raises(CapacityError):
            SimulatedMemory(CycleClock(), tiny_costs(), enclave=True)

    def test_llc_miss_pays_mee(self):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        region = mem.allocate(costs.line_size)
        first = mem.access(region)
        # page fault + MEE line fill
        assert first == costs.page_fault_cycles + costs.mee_read_cycles
        second = mem.access(region)
        assert second == costs.llc_hit_cycles

    def test_working_set_within_epc_faults_once_per_page(self):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        # 3 usable pages; allocate exactly 3 pages.
        region = mem.allocate(3 * costs.page_size)
        for _ in range(5):
            mem.access(region)
        assert mem.stats.page_faults == 3

    def test_working_set_beyond_epc_thrashes(self):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        # 4 pages > 3 usable: cyclic sweep + LRU = fault every page, every pass.
        region = mem.allocate(4 * costs.page_size)
        passes = 4
        for _ in range(passes):
            for page in range(4):
                mem.access(region, offset=page * costs.page_size, size=8)
        assert mem.stats.page_faults == 4 * passes

    def test_epc_shared_between_memories(self):
        costs = tiny_costs()
        epc = EpcModel(costs)
        clock = CycleClock()
        mem_a = SimulatedMemory(clock, costs, enclave=True, epc=epc, name="a")
        mem_b = SimulatedMemory(clock, costs, enclave=True, epc=epc, name="b")
        region_a = mem_a.allocate(2 * costs.page_size)
        region_b = mem_b.allocate(2 * costs.page_size)
        mem_a.access(region_a)
        mem_b.access(region_b)   # 4 pages into 3 slots: evicts one of a's
        mem_a.access(region_a)
        assert epc.faults >= 5

    def test_resident_pages_never_exceed_capacity(self):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        region = mem.allocate(20 * costs.page_size)
        mem.access(region)
        assert mem.epc.resident_pages <= mem.epc.capacity_pages

    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(1, 64)), max_size=60))
    def test_epc_capacity_invariant_property(self, accesses):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        region = mem.allocate(20 * costs.page_size)
        for page, size in accesses:
            mem.access(region, offset=page * costs.page_size, size=size)
            assert mem.epc.resident_pages <= mem.epc.capacity_pages

    def test_enclave_dearer_than_native_for_same_workload(self):
        costs = tiny_costs()
        native = native_memory(costs)
        enclave = enclave_memory(costs)
        for mem in (native, enclave):
            region = mem.allocate(8 * costs.page_size)
            for _ in range(3):
                mem.access(region)
        assert enclave.clock.now > native.clock.now


class TestStats:
    def test_snapshot_delta(self):
        costs = tiny_costs()
        mem = native_memory(costs)
        region = mem.allocate(costs.line_size)
        mem.access(region)
        before = mem.stats.snapshot()
        mem.access(region)
        delta = mem.stats.delta(before)
        assert delta.accesses == 1
        assert delta.llc_hits == 1
        assert delta.llc_misses == 0

    def test_copy_touches_both_regions(self):
        costs = tiny_costs()
        mem = native_memory(costs)
        src = mem.allocate(costs.line_size)
        dst = mem.allocate(costs.line_size)
        mem.copy(src, dst)
        assert mem.stats.accesses == 2


class TestLlcModel:
    def test_flush_forgets_lines(self):
        costs = tiny_costs()
        llc = LlcModel(costs)
        mem = SimulatedMemory(CycleClock(), costs, llc=llc, name="m")
        line = mem.allocate(costs.line_size)
        assert mem.access(line) == costs.dram_cycles
        assert mem.access(line) == costs.llc_hit_cycles
        llc.flush()
        assert mem.access(line) == costs.dram_cycles

    def test_namespaced_lines_do_not_collide(self):
        costs = tiny_costs()
        clock = CycleClock()
        llc = LlcModel(costs)
        mem_a = SimulatedMemory(clock, costs, llc=llc, name="a")
        mem_b = SimulatedMemory(clock, costs, llc=llc, name="b")
        region_a = mem_a.allocate(costs.line_size)
        region_b = mem_b.allocate(costs.line_size)
        mem_a.access(region_a)
        mem_b.access(region_b)  # same address range, different namespace
        assert mem_b.stats.llc_misses == 1


class TestFree:
    def test_free_reduces_resident_not_allocated(self):
        mem = enclave_memory()
        region = mem.allocate(512)
        assert mem.free(region) == 512
        assert mem.resident_bytes == 0
        assert mem.allocated_bytes == 512

    def test_free_none_is_a_noop(self):
        assert enclave_memory().free(None) == 0

    def test_double_free_rejected(self):
        mem = enclave_memory()
        region = mem.allocate(512)
        mem.free(region)
        with pytest.raises(CapacityError):
            mem.free(region)

    def test_unallocated_region_rejected(self):
        from repro.sgx.memory import MemoryRegion

        mem = enclave_memory()
        with pytest.raises(CapacityError):
            mem.free(MemoryRegion(0, 4096, "ghost"))

    def test_freed_pages_leave_the_epc(self):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        region = mem.allocate_aligned(costs.page_size)
        mem.access(region, size=costs.page_size)
        faults = mem.stats.page_faults
        mem.access(region, size=costs.page_size)
        assert mem.stats.page_faults == faults  # resident: no new fault
        mem.free(region)
        fresh = mem.allocate_aligned(costs.page_size)
        mem.access(fresh, size=costs.page_size)
        # The freed page was EREMOVEd, so the fresh page fits without
        # evicting anything -- and re-touching the freed range would
        # have to fault again.
        assert mem.stats.page_faults == faults + 1

    def test_straddling_page_stays_resident(self):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        whole = mem.allocate_aligned(costs.page_size)
        mem.access(whole, size=costs.page_size)
        faults = mem.stats.page_faults
        # Free only half the page: the page holds live neighbours and
        # must stay in the EPC.
        from repro.sgx.memory import MemoryRegion

        half = MemoryRegion(whole.base, costs.page_size // 2, "half")
        mem.free(half)
        mem.access(whole, offset=costs.page_size // 2,
                   size=costs.page_size // 2)
        assert mem.stats.page_faults == faults

    def test_watermark_clears_after_free(self):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        regions = [mem.allocate(costs.page_size) for _ in range(2)]
        assert mem.watermark_exceeded(0.5)
        mem.free(regions[0])
        assert not mem.watermark_exceeded(0.5)

    def test_native_memory_never_trips_the_watermark(self):
        mem = native_memory()
        mem.allocate(1 << 20)
        assert not mem.watermark_exceeded(0.01)


class TestReleaseAll:
    def test_release_all_zeroes_the_resident_set(self):
        costs = tiny_costs()
        mem = enclave_memory(costs)
        region = mem.allocate(2 * costs.page_size)
        mem.access(region)
        assert mem.resident_bytes > 0
        assert mem.epc.resident_pages > 0
        released = mem.release_all()
        assert released == 2 * costs.page_size
        assert mem.resident_bytes == 0
        assert mem.released
        # Nothing of this memory survives in the shared EPC or LLC.
        assert all(
            key[0] != mem.name for key in mem.epc.resident_page_keys()
        )

    def test_release_all_is_idempotent_and_disarms_free(self):
        mem = enclave_memory()
        region = mem.allocate(128)
        assert mem.release_all() == 128
        assert mem.release_all() == 0
        # A straggler free after teardown is a no-op, not an error.
        assert mem.free(region) == 0

    def test_released_memory_cannot_be_touched(self):
        # A torn-down enclave used to re-occupy the shared EPC silently:
        # pages resident, resident_bytes zero, the watermark blind to it.
        costs = tiny_costs()
        mem = enclave_memory(costs)
        region = mem.allocate(2 * costs.page_size)
        mem.access(region)
        mem.release_all()
        spent = mem.clock.now
        for touch in (lambda: mem.access(region),
                      lambda: mem.scan([region]),
                      lambda: mem.copy(region, region)):
            with pytest.raises(CapacityError):
                touch()
        assert mem.epc.resident_pages == 0
        assert mem.clock.now == spent

    def test_release_owner_spares_other_tenants(self):
        costs = tiny_costs()
        epc = EpcModel(costs)
        clock = CycleClock()
        dying = SimulatedMemory(clock, costs, enclave=True, epc=epc,
                                name="dying")
        survivor = SimulatedMemory(clock, costs, enclave=True, epc=epc,
                                   name="survivor")
        dying.access(dying.allocate(costs.page_size))
        survivor.access(survivor.allocate(costs.page_size))
        assert dying.release_all() == costs.page_size
        keys = epc.resident_page_keys()
        assert keys and all(key[0] == "survivor" for key in keys)
        assert survivor.resident_bytes == costs.page_size
