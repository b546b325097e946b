"""The line-at-a-time memory model, kept as the test oracle.

This is ``repro.sgx.memory`` as it stood before the touch kernel, code
unchanged and docstrings dropped: ``(owner, id)`` tuple keys, one LRU
look-up, three counter bumps and one clock charge per cache line, one
``access`` plus one ``compute`` per visited record.  It is slow and
plainly right, which is what a reference is for;
``test_memory_differential.py`` holds the kernel to it step by step.
Added: :meth:`ReferenceMemory.scan`, written as the loop ``scan``
promises to be equal to, and ``ReferenceLlc.keys``.
"""

from collections import OrderedDict

from repro.errors import CapacityError
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.memory import MemoryRegion, MemoryStats


class ReferenceLru:
    def __init__(self, capacity):
        if capacity < 1:
            raise CapacityError("LRU capacity must be >= 1")
        self.capacity = capacity
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def touch(self, key):
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return True
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[key] = None
        return False

    def discard(self, key):
        self._entries.pop(key, None)

    def keys(self):
        return list(self._entries)

    def discard_owner(self, owner):
        victims = [key for key in self._entries if key[0] == owner]
        for key in victims:
            del self._entries[key]
        return len(victims)

    def clear(self):
        self._entries.clear()


class ReferenceLlc:
    def __init__(self, costs=DEFAULT_COSTS):
        self.costs = costs
        self._lines = ReferenceLru(max(1, costs.llc_capacity // costs.line_size))

    def touch_line(self, line_id):
        return self._lines.touch(line_id)

    def discard_line(self, line_id):
        self._lines.discard(line_id)

    def release_owner(self, owner):
        return self._lines.discard_owner(owner)

    def flush(self):
        self._lines.clear()

    def keys(self):
        return self._lines.keys()


class ReferenceEpc:
    def __init__(self, costs=DEFAULT_COSTS):
        self.costs = costs
        self.capacity_pages = max(1, costs.epc_usable // costs.page_size)
        self._pages = ReferenceLru(self.capacity_pages)
        self.faults = 0
        self.loads = 0

    @property
    def resident_pages(self):
        return len(self._pages)

    def touch_page(self, page_id):
        hit = self._pages.touch(page_id)
        self.loads += 1
        if not hit:
            self.faults += 1
        return hit

    def discard_page(self, page_id):
        self._pages.discard(page_id)

    def release_owner(self, owner):
        return self._pages.discard_owner(owner)

    def resident_page_keys(self):
        return self._pages.keys()

    def evict_all(self):
        self._pages.clear()
        self.faults = 0
        self.loads = 0


class ReferenceMemory:
    def __init__(self, clock, costs=DEFAULT_COSTS, enclave=False, epc=None,
                 llc=None, name="mem"):
        if enclave and epc is None:
            raise CapacityError("enclave memory requires a ReferenceEpc")
        self.clock = clock
        self.costs = costs
        self.enclave = enclave
        self.epc = epc
        self.llc = llc if llc is not None else ReferenceLlc(costs)
        self.name = name
        self.stats = MemoryStats()
        self._next_address = 0
        self._freed_bytes = 0
        self._freed_regions = set()
        self._released = False

    @property
    def allocated_bytes(self):
        return self._next_address

    @property
    def resident_bytes(self):
        return self._next_address - self._freed_bytes

    def allocate(self, size, label=""):
        if size <= 0:
            raise CapacityError("allocation size must be positive")
        region = MemoryRegion(self._next_address, size, label)
        self._next_address += size
        return region

    def allocate_aligned(self, size, label=""):
        page = self.costs.page_size
        remainder = self._next_address % page
        if remainder:
            self._next_address += page - remainder
        return self.allocate(size, label)

    def free(self, region):
        if region is None or self._released:
            return 0
        if region.end > self._next_address:
            raise CapacityError(
                "region [%d, %d) was never allocated here"
                % (region.base, region.end)
            )
        identity = (region.base, region.size)
        if identity in self._freed_regions:
            raise CapacityError(
                "region [%d, %d) already freed" % (region.base, region.end)
            )
        self._freed_regions.add(identity)
        self._freed_bytes += region.size
        costs = self.costs
        if self.enclave and self.epc is not None:
            first_page = -(-region.base // costs.page_size)  # ceil
            last_page = region.end // costs.page_size        # exclusive
            for page_id in range(first_page, last_page):
                self.epc.discard_page((self.name, page_id))
        first_line = -(-region.base // costs.line_size)
        last_line = region.end // costs.line_size
        for line_id in range(first_line, last_line):
            self.llc.discard_line((self.name, line_id))
        return region.size

    def release_all(self):
        if self._released:
            return 0
        self._released = True
        released = self.resident_bytes
        self._freed_bytes = self._next_address
        if self.enclave and self.epc is not None:
            self.epc.release_owner(self.name)
        self.llc.release_owner(self.name)
        return released

    @property
    def released(self):
        return self._released

    def watermark_exceeded(self, fraction):
        if not self.enclave:
            return False
        return self.resident_bytes >= fraction * self.costs.epc_usable

    def compute(self, cycles):
        self.stats.cycles_compute += cycles
        self.clock.charge(cycles)

    def access(self, region, offset=0, size=None, write=False):
        if size is None:
            size = region.size - offset
        if size <= 0:
            return 0
        if offset < 0 or offset + size > region.size:
            raise CapacityError("access outside region bounds")
        costs = self.costs
        start = region.base + offset
        end = start + size

        charged = 0
        if self.enclave:
            first_page = start // costs.page_size
            last_page = (end - 1) // costs.page_size
            for page_id in range(first_page, last_page + 1):
                if not self.epc.touch_page((self.name, page_id)):
                    self.stats.page_faults += 1
                    charged += costs.page_fault_cycles

        first_line = start // costs.line_size
        last_line = (end - 1) // costs.line_size
        for line_id in range(first_line, last_line + 1):
            self.stats.accesses += 1
            if self.llc.touch_line((self.name, line_id)):
                self.stats.llc_hits += 1
                charged += costs.llc_hit_cycles
            elif self.enclave:
                self.stats.llc_misses += 1
                charged += costs.mee_read_cycles
            else:
                self.stats.llc_misses += 1
                charged += costs.dram_cycles
        # Writes pay the same read-modify-write path in this model; the
        # MEE encrypts on writeback, folded into mee_read_cycles.
        self.stats.cycles_memory += charged
        self.clock.charge(charged)
        return charged

    def copy(self, source, destination, size=None):
        if size is None:
            size = min(source.size, destination.size)
        cycles = self.access(source, size=size)
        cycles += self.access(destination, size=size, write=True)
        return cycles

    def scan(self, regions, size=None, compute_cycles=0):
        cycles = 0
        for region in regions:
            cycles += self.access(region, size=size)
            self.compute(int(compute_cycles))
        return cycles
