"""Differential test: the touch kernel against the per-line reference.

Two enclave memories and one native memory share one EPC, one LLC and
one clock -- once built from ``repro.sgx.memory`` and once from
``tests.sgx.reference_memory`` -- and hypothesis drives both through the
same interleaving of allocations, visits, scans, strided scans (and
verbatim repeats of the last one), walks charged by precomputed keys,
copies, frees, teardowns and platform resets.  After *every* step the
clock, every counter and both LRUs' resident keys *in order* must be
equal: that is the whole meaning of "cycle-identical", and it is also
what guards the batch accounting (the kernel settles the clock once per
scan, so a disagreement anywhere in a scan shows at its end).
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
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.memory import (
    EpcModel,
    LlcModel,
    MemoryRegion,
    SimulatedMemory,
)
from repro.sim.clock import CycleClock
from tests.sgx.reference_memory import (
    ReferenceEpc,
    ReferenceLlc,
    ReferenceMemory,
)

LINE = 64
PAGE = 256
SLOTS = 3  # two enclave memories and one native one


def tiny_costs(pages, lines):
    return DEFAULT_COSTS.scaled(
        line_size=LINE, page_size=PAGE, llc_capacity=lines * LINE,
        epc_capacity=pages * PAGE, epc_metadata_fraction=0.0,
    )


class Platform:
    """One side of the comparison: shared EPC, LLC and clock."""

    def __init__(self, costs, memory_cls, epc_cls, llc_cls):
        self.costs = costs
        self.memory_cls = memory_cls
        self.clock = CycleClock()
        self.epc = epc_cls(costs)
        self.llc = llc_cls(costs)
        self.memories = [self.spawn(slot, 0) for slot in range(SLOTS)]

    def spawn(self, slot, generation):
        enclave = slot < 2
        return self.memory_cls(
            self.clock, self.costs, enclave=enclave,
            epc=self.epc if enclave else None, llc=self.llc,
            name="m%d.%d" % (slot, generation),
        )

    def state(self):
        return (
            self.clock.now,
            [astuple(memory.stats) for memory in self.memories],
            [memory.resident_bytes for memory in self.memories],
            self.epc.loads,
            self.epc.faults,
            self.epc.resident_page_keys(),
            self.llc.keys(),
        )


def both_or_neither(real_call, reference_call):
    """Run one step on both sides; they must agree on CapacityError."""
    outcomes = []
    for call in (real_call, reference_call):
        try:
            outcomes.append(("ok", call()))
        except CapacityError:
            outcomes.append(("capacity-error", None))
    assert outcomes[0] == outcomes[1]


slots = st.integers(0, SLOTS - 1)
picks = st.integers(0, 1 << 16)


class MemoryDifferential(RuleBasedStateMachine):
    @initialize(pages=st.sampled_from([1, 4]), lines=st.sampled_from([1, 8]))
    def setup(self, pages, lines):
        costs = tiny_costs(pages, lines)
        self.real = Platform(costs, SimulatedMemory, EpcModel, LlcModel)
        self.reference = Platform(
            costs, ReferenceMemory, ReferenceEpc, ReferenceLlc
        )
        # Regions per slot (both sides hand out equal ones).  Freed
        # regions stay: the model lets a freed range be touched again,
        # and it must then miss on both sides.
        self.regions = [[] for _ in range(SLOTS)]
        self.freed = [set() for _ in range(SLOTS)]
        self.generation = [0] * SLOTS
        self.last_strided = None

    def _sides(self, slot):
        return self.real.memories[slot], self.reference.memories[slot]

    def _pick(self, slot, pick):
        regions = self.regions[slot]
        return regions[pick % len(regions)] if regions else None

    # Whole lines and whole pages as well as odd sizes: only a line or
    # page that lies wholly inside a region leaves the LRU when it is freed.
    @rule(slot=slots, aligned=st.booleans(),
          size=st.sampled_from([LINE, PAGE, 2 * PAGE])
          | st.integers(1, 3 * PAGE))
    def allocate(self, slot, size, aligned):
        real, reference = self._sides(slot)
        method = "allocate_aligned" if aligned else "allocate"
        region = getattr(real, method)(size, "r")
        assert getattr(reference, method)(size, "r") == region
        self.regions[slot].append(region)

    @rule(slot=slots, pick=picks, offset=picks, size=picks)
    def access(self, slot, pick, offset, size):
        region = self._pick(slot, pick)
        if region is None:
            return
        # Any span inside the region, the empty one included: spans
        # cross line and page boundaries because regions are unaligned.
        offset %= region.size + 1
        size %= region.size - offset + 1
        real, reference = self._sides(slot)
        assert (real.access(region, offset=offset, size=size)
                == reference.access(region, offset=offset, size=size))

    @rule(slot=slots, chosen=st.lists(picks, max_size=12),
          size=st.none() | st.sampled_from([0, 1, LINE])
          | st.integers(0, 2 * PAGE),
          cycles=st.sampled_from([0, 7, 150, 2.9]), batch=st.booleans())
    def visit(self, slot, chosen, size, cycles, batch):
        """One scan, or the same visits call by call, against the
        reference's call-by-call loop.  A ``size`` beyond some region
        makes both stop there, having charged the regions before it."""
        if not self.regions[slot]:
            return
        visited = [self._pick(slot, pick) for pick in chosen]
        real, reference = self._sides(slot)

        def per_call():
            total = 0
            for region in visited:
                total += real.access(region, size=size)
                real.compute(int(cycles))
            return total

        both_or_neither(
            (lambda: real.scan(visited, size, cycles)) if batch else per_call,
            lambda: reference.scan(visited, size, cycles),
        )

    # Strides below a line, of one line, of whole lines that divide the
    # page (the fast geometry) and of whole lines that do not; spans
    # from empty to past the stride, so records may overlap.
    @rule(slot=slots, base=picks, aligned=st.booleans(),
          stride=st.sampled_from([LINE // 2, LINE, 2 * LINE, 3 * LINE,
                                  PAGE, 2 * PAGE])
          | st.integers(1, 3 * PAGE),
          count=st.sampled_from([0, 1]) | st.integers(2, 40),
          size=st.sampled_from([0, 1, LINE // 2, LINE])
          | st.integers(0, 3 * PAGE),
          cycles=st.sampled_from([0, 7, 150, 2.9]))
    def visit_strided(self, slot, base, aligned, stride, count, size, cycles):
        """A table of ``count`` records ``stride`` bytes apart, against
        the reference's scan over the same regions."""
        base %= 4 * PAGE
        if aligned:
            base -= base % LINE
        self.last_strided = (slot, base, stride, count, size, cycles)
        self._strided(*self.last_strided)

    @rule()
    def repeat_strided(self):
        """The previous strided call again, verbatim: right after it,
        each cache is handed the range it was handed last."""
        if self.last_strided is not None:
            self._strided(*self.last_strided)

    def _strided(self, slot, base, stride, count, size, cycles):
        regions = [MemoryRegion(base + i * stride, size) for i in range(count)]
        real, reference = self._sides(slot)
        both_or_neither(
            lambda: real.scan_strided(base, stride, count, size, cycles),
            lambda: reference.scan(regions, size, cycles),
        )

    @rule(slot=slots, chosen=st.lists(picks, max_size=12),
          size=st.sampled_from([0, 1, LINE // 2, LINE, PAGE])
          | st.integers(0, 2 * PAGE),
          cycles=st.sampled_from([0, 7, 150, 2.9]))
    def visit_keys(self, slot, chosen, size, cycles):
        """A forest walk: each visited record's keys derived once with
        ``span_keys`` and appended in visit order, as
        ``ContainmentIndex`` does, then charged by ``scan_keys``,
        against the reference's scan of the same regions.  Regions are
        unaligned, so spans cross lines and pages."""
        if not self.regions[slot]:
            return
        visited = [self._pick(slot, pick) for pick in chosen]
        # A walk reads a span every record holds, from its base.
        size %= min((region.size for region in visited), default=0) + 1
        real, reference = self._sides(slot)
        lines, pages = [], []
        for region in visited:
            for keys, into in zip(real.span_keys(region.base, size),
                                  (lines, pages)):
                if keys.__class__ is int:
                    into.append(keys)
                else:
                    into.extend(keys)
        assert (real.scan_keys(lines, pages, len(visited), cycles)
                == reference.scan(visited, size, cycles))

    @rule(slot=slots, source=picks, destination=picks)
    def copy(self, slot, source, destination):
        if not self.regions[slot]:
            return
        source = self._pick(slot, source)
        destination = self._pick(slot, destination)
        real, reference = self._sides(slot)
        assert (real.copy(source, destination)
                == reference.copy(source, destination))

    @rule(slot=slots, pick=picks)
    def free(self, slot, pick):
        region = self._pick(slot, pick)
        if region is None or region in self.freed[slot]:
            return
        self.freed[slot].add(region)
        real, reference = self._sides(slot)
        assert real.free(region) == reference.free(region) == region.size

    @rule(slot=slots, rename=st.booleans())
    def release_and_respawn(self, slot, rename):
        """An enclave dies; its successor joins the same platform,
        under a fresh name or under the one the dead enclave had."""
        real, reference = self._sides(slot)
        assert real.release_all() == reference.release_all()
        for region in self.regions[slot][:1]:
            with pytest.raises(CapacityError):
                real.access(region)
            with pytest.raises(CapacityError):
                real.scan([region])
        # The run geometry, the region-by-region one and the empty table.
        for stride, count, size in ((LINE, 3, 1), (3, 3, LINE), (LINE, 0, 1)):
            with pytest.raises(CapacityError):
                real.scan_strided(0, stride, count, size)
        # A walk, with keys or without.
        for lines, pages, visits in (([0], [0], 1), ([], [], 0)):
            with pytest.raises(CapacityError):
                real.scan_keys(lines, pages, visits)
        # Nor does it hand out fresh bytes that could never leave.
        for memory in (real, reference):
            for allocate in (memory.allocate, memory.allocate_aligned):
                with pytest.raises(CapacityError):
                    allocate(LINE, "r")
        assert real.resident_bytes == reference.resident_bytes == 0
        self.regions[slot] = []
        self.freed[slot] = set()
        self.generation[slot] += rename
        for side in (self.real, self.reference):
            side.memories[slot] = side.spawn(slot, self.generation[slot])

    @rule()
    def flush_llc(self):
        self.real.llc.flush()
        self.reference.llc.flush()

    @rule()
    def evict_epc(self):
        # With flush_llc, what SgxPlatform.reset_memory_system does.
        self.real.epc.evict_all()
        self.reference.epc.evict_all()

    @invariant()
    def every_observable_agrees(self):
        if hasattr(self, "real"):
            assert self.real.state() == self.reference.state()


TestMemoryDifferential = MemoryDifferential.TestCase
TestMemoryDifferential.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)


def enclave_pair(pages=4, lines=8):
    costs = tiny_costs(pages, lines)
    real = Platform(costs, SimulatedMemory, EpcModel, LlcModel)
    reference = Platform(costs, ReferenceMemory, ReferenceEpc, ReferenceLlc)
    return real, reference


def in_step(steps):
    """Run each step on both sides; everything agrees after each."""
    real, reference = enclave_pair()
    for step in steps:
        assert step(real) == step(reference)
        assert real.state() == reference.state()
    return real


PAGE_ZERO = MemoryRegion(0, PAGE, "r")


def free_it(platform):
    return platform.memories[0].free(PAGE_ZERO)


def respawn_under_the_same_name(platform):
    released = platform.memories[0].release_all()
    platform.memories[0] = platform.spawn(0, 0)
    assert platform.memories[0].allocate_aligned(PAGE, "r") == PAGE_ZERO
    return released


def reset_the_platform(platform):
    platform.llc.flush()
    platform.epc.evict_all()


@pytest.mark.parametrize(
    "forget", [free_it, respawn_under_the_same_name, reset_the_platform]
)
def test_the_newest_key_is_forgotten_when_it_leaves(forget):
    # The hypothesis machine rarely lines these three steps up, so they
    # are spelled out: touch a page (it and its last line are now the
    # newest keys), remove it from the LRUs, touch the same line again.
    # It must fault and miss again, not pass as "already the newest".
    real = in_step([
        lambda p: p.memories[0].allocate_aligned(PAGE, "r"),
        lambda p: p.memories[0].access(PAGE_ZERO),
        forget,
        lambda p: p.memories[0].access(PAGE_ZERO, offset=PAGE - LINE),
    ])
    assert real.epc.faults == (1 if forget is reset_the_platform else 2)


def test_scan_that_raises_has_charged_exactly_the_regions_before():
    real, reference = enclave_pair()
    memory, oracle = real.memories[0], reference.memories[0]
    regions = [memory.allocate(size) for size in (300, 300, 100, 300)]
    assert [oracle.allocate(region.size) for region in regions] == regions
    with pytest.raises(CapacityError):
        memory.scan(regions, 200, compute_cycles=150)  # regions[2] is short
    for region in regions[:2]:
        oracle.access(region, size=200)
        oracle.compute(150)
    assert real.state() == reference.state()
    assert memory.stats.cycles_compute == 2 * 150


def test_scan_charges_whole_compute_cycles_per_region():
    real, _reference = enclave_pair()
    memory = real.memories[2]
    regions = [memory.allocate(LINE) for _ in range(5)]
    before = real.clock.now
    charged = memory.scan(regions, compute_cycles=2.9)
    assert memory.stats.cycles_compute == 5 * 2
    assert real.clock.now - before == charged + 5 * 2
    with pytest.raises(ValueError):
        memory.scan(regions, compute_cycles=-1)
    assert memory.stats.accesses == 5  # the refused scan touched nothing
    # A zero-byte visit is still a visit: no line, but the work is done.
    assert memory.scan(regions, 0, compute_cycles=150) == 0
    assert memory.stats.accesses == 5
    assert memory.stats.cycles_compute == 5 * 2 + 5 * 150


def test_accesses_counts_lines_however_the_visits_are_batched():
    # benchmarks/perf's tracer counts *calls* to access(), so it no
    # longer sees matcher traffic; this counter is the authoritative
    # number of line touches and must not depend on the batching.
    real, reference = enclave_pair()
    memory, oracle = real.memories[0], reference.memories[0]
    regions = [memory.allocate(512) for _ in range(20)]
    assert [oracle.allocate(512) for _ in range(20)] == regions
    memory.scan(regions, LINE, 150)
    for region in regions:
        oracle.access(region, size=LINE)
        oracle.compute(150)
    assert memory.stats == oracle.stats
    assert memory.stats.accesses == 20
