"""The simulated memory hierarchy: LLC, DRAM, and the EPC.

Running the *same* algorithm against two :class:`SimulatedMemory`
instances -- one native, one enclave-backed -- reproduces the paper's
Figure 3.  The cost difference is not hand-tuned; it emerges from the
mechanism:

- every access touches last-level-cache blocks (LRU); a hit costs
  ``llc_hit_cycles`` per line, a native miss costs ``dram_cycles``;
- inside an enclave an LLC miss is served through the Memory Encryption
  Engine (``mee_read_cycles``: decrypt + integrity + freshness check);
- enclave pages live in the EPC (LRU, capacity ``epc_usable``); touching
  a non-resident page costs ``page_fault_cycles`` (the OS evicts and
  reloads an encrypted page) before the line access proceeds.

Addresses are virtual byte offsets handed out by a bump allocator, so
spatial locality (several records per page, several fields per line) is
modelled faithfully.
"""

from collections import OrderedDict
from dataclasses import astuple, dataclass, replace
from typing import NamedTuple

from repro.errors import CapacityError
from repro.sgx.costs import DEFAULT_COSTS


@dataclass
class MemoryStats:
    """Counters accumulated by a :class:`SimulatedMemory`."""

    accesses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    page_faults: int = 0
    cycles_memory: int = 0
    cycles_compute: int = 0

    def snapshot(self):
        """An independent copy of the current counters."""
        return replace(self)

    def delta(self, earlier):
        """Counters accumulated since the ``earlier`` snapshot."""
        return MemoryStats(
            *(now - was for now, was in zip(astuple(self), astuple(earlier)))
        )


# One memory's addresses, hence its line and page ids, stay below 1 TiB.
ADDRESS_BITS = 40
# Keys a scan collects before it hands them to a cache: a 96 MiB table
# scan touches 196 608 lines and must not hold them all as one list.
_RUN = 4096


class _LruSet:
    """An LRU-evicting set of keys with fixed capacity.

    Shared by every memory on a platform: each owner (a memory's name)
    gets a range of int keys, :meth:`key_base` plus a line or page id.
    Ints hash and compare faster than ``(name, id)`` tuples, and the
    LLC alone holds 131 072 of them.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise CapacityError("LRU capacity must be >= 1")
        self.capacity = capacity
        self._entries = OrderedDict()
        self._bases = {}
        # The key touched last, or None when a removal may have taken
        # it.  Moving the last entry to the end is a no-op, so a caller
        # that compares first may skip the touch: a record scan
        # re-touches the page it touched last 7 times in 8.
        self.newest = None
        # The range touch_many was handed last, or None once anything
        # else touched or removed a key since (see touch_many).
        self._last_run = None

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def key_base(self, owner):
        """The key of ``owner``'s id 0; its id ``n`` is ``base + n``."""
        return self._bases.setdefault(owner, len(self._bases) << ADDRESS_BITS)

    def touch(self, key):
        """Record an access; returns True on hit, False on miss.

        On a miss the key is inserted, evicting the least recently used
        entry if the set is full.
        """
        entries = self._entries
        self.newest = key
        self._last_run = None
        if key in entries:
            entries.move_to_end(key)
            return True
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
        entries[key] = None
        return False

    def touch_many(self, keys):
        """:meth:`touch` each key in order; returns how many missed.

        One loop with everything local: a scan hands each cache its
        whole run of keys instead of making a call per line.

        A ``range`` equal to the one handed last, with nothing touched
        or removed since, is not walked: repeating it is a fixed point.
        Its ``n`` keys are distinct, so the first pass left the last
        ``min(n, capacity)`` of them newest, in order.  If ``n`` fits,
        every key of the repeat hits and the order is unchanged; if not,
        each key was evicted before the repeat reaches it, so all ``n``
        miss and the same last ``capacity`` keys remain, in order.
        """
        if keys == self._last_run:
            return len(keys) if len(keys) > self.capacity else 0
        entries = self._entries
        move_to_end = entries.move_to_end
        evict = entries.popitem  # evict(False): the oldest entry
        room = self.capacity - len(entries)
        misses = 0
        key = self.newest
        for key in keys:
            if key in entries:
                move_to_end(key)
            elif room:
                room -= 1
                entries[key] = None
                misses += 1
            else:
                evict(False)
                entries[key] = None
                misses += 1
        self.newest = key
        self._last_run = keys if type(keys) is range else None
        return misses

    def discard(self, key):
        """Remove ``key`` if present (for an EPC page an EREMOVE: back
        to the free pool without an eviction write-back)."""
        self._entries.pop(key, None)
        self.newest = self._last_run = None

    def keys(self):
        """Snapshot of resident ``(owner, id)`` pairs, oldest first."""
        owners = list(self._bases)
        return [
            (owners[key >> ADDRESS_BITS], key & ((1 << ADDRESS_BITS) - 1))
            for key in self._entries
        ]

    def release_owner(self, owner):
        """Drop every resident key of ``owner``; returns the count.

        One pass over the (capacity-bounded) LRU, not over the owner's
        address space.  A dying enclave's teardown must call this, or
        its pages keep occupying the shared EPC and every survivor on
        the platform pays its paging pressure.
        """
        ordinal = self.key_base(owner) >> ADDRESS_BITS
        victims = [
            key for key in self._entries if key >> ADDRESS_BITS == ordinal
        ]
        for key in victims:
            del self._entries[key]
        self.newest = self._last_run = None
        return len(victims)

    def clear(self):
        """Drop all entries (platform reset); owners keep their bases."""
        self._entries.clear()
        self.newest = self._last_run = None


class LlcModel(_LruSet):
    """Last-level cache tracked as an LRU over cache lines."""

    def __init__(self, costs=DEFAULT_COSTS):
        super().__init__(max(1, costs.llc_capacity // costs.line_size))

    flush = _LruSet.clear


class EpcModel(_LruSet):
    """The Enclave Page Cache: an LRU over resident 4 KiB enclave pages.

    Shared by all enclaves on a platform (as on real hardware).  The
    usable capacity excludes the fraction reserved for SGX metadata, so
    paging begins before an application working set reaches the nominal
    128 MiB -- exactly the effect visible in the paper's Figure 3.
    """

    def __init__(self, costs=DEFAULT_COSTS):
        self.capacity_pages = max(1, costs.epc_usable // costs.page_size)
        super().__init__(self.capacity_pages)
        self.faults = 0
        self.loads = 0

    @property
    def resident_pages(self):
        """Number of pages currently resident."""
        return len(self)

    resident_page_keys = _LruSet.keys

    def evict_all(self):
        """Drop every resident page (platform reset)."""
        self.clear()
        self.faults = 0
        self.loads = 0


class MemoryRegion(NamedTuple):
    """A contiguous allocation in a simulated address space (a tuple:
    cheap to build where one is consumed)."""

    base: int
    size: int
    label: str = ""

    def slice(self, offset, size):
        """A sub-region; bounds-checked."""
        if offset < 0 or size < 0 or offset + size > self.size:
            raise CapacityError(
                "slice [%d, %d) outside region of size %d"
                % (offset, offset + size, self.size)
            )
        return MemoryRegion(self.base + offset, size, self.label)

    @property
    def end(self):
        return self.base + self.size


class SimulatedMemory:
    """A byte-addressed memory charged in virtual cycles.

    ``enclave=True`` routes LLC misses through the MEE and pages through
    the (shared) EPC.  Allocation is a bump allocator: regions are laid
    out contiguously in allocation order, which is how the SCBR engine
    obtains its sequential subscription layout.
    """

    def __init__(self, clock, costs=DEFAULT_COSTS, enclave=False, epc=None,
                 llc=None, name="mem"):
        if enclave and epc is None:
            raise CapacityError("enclave memory requires an EpcModel")
        self.clock = clock
        self.costs = costs
        self.enclave = enclave
        self.epc = epc
        self.llc = llc if llc is not None else LlcModel(costs)
        self.name = name
        self._line_base = self.llc.key_base(name)
        self._page_base = epc.key_base(name) if enclave else None
        self.stats = MemoryStats()
        self._next_address = 0
        self._freed_bytes = 0
        self._freed_regions = set()
        self.released = False  # True once release_all tore this memory down

    @property
    def allocated_bytes(self):
        """Total bytes handed out so far."""
        return self._next_address

    @property
    def resident_bytes(self):
        """Bytes still live: handed out and never freed.

        The bump allocator does not reuse address space, so this -- not
        :attr:`allocated_bytes` -- is the working-set figure an EPC
        watermark policy must compare against the usable EPC.
        """
        return self._next_address - self._freed_bytes

    def reserve(self, size, align=1):
        """Reserve ``size`` contiguous bytes at the next multiple of
        ``align`` and return their base address: the one place addresses
        are handed out.  A released memory hands out nothing, since its
        bytes could never leave the resident set.
        """
        if self.released:
            raise CapacityError("memory %r was released" % self.name)
        if size <= 0:
            raise CapacityError("allocation size must be positive")
        base = self._next_address + -self._next_address % align
        if base + size > 1 << ADDRESS_BITS:
            raise CapacityError("address space exhausted")
        self._next_address = base + size
        return base

    def allocate(self, size, label=""):
        """Reserve ``size`` contiguous bytes and return the region."""
        return MemoryRegion(self.reserve(size), size, label)

    def allocate_aligned(self, size, label=""):
        """Allocate starting at the next page boundary."""
        return MemoryRegion(
            self.reserve(size, self.costs.page_size), size, label
        )

    def free(self, region):
        """Release ``region``: its pages leave the EPC, its lines the LLC.

        The bump allocator never reuses addresses, but a freed record
        must stop contributing to enclave paging pressure: pages fully
        inside the region are EREMOVEd from the EPC (no eviction
        write-back) and fully-covered cache lines are dropped.  Pages
        and lines straddling the region boundary may hold neighbouring
        live data and stay resident.  Returns the bytes released.
        """
        if region is None or self.released:
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
        if self.enclave:
            first_page = -(-region.base // costs.page_size)  # ceil
            last_page = region.end // costs.page_size        # exclusive
            for page_id in range(first_page, last_page):
                self.epc.discard(self._page_base + page_id)
        first_line = -(-region.base // costs.line_size)
        last_line = region.end // costs.line_size
        for line_id in range(first_line, last_line):
            self.llc.discard(self._line_base + line_id)
        return region.size

    def release_all(self):
        """Release everything this memory still holds (enclave death).

        Models the OS reclaiming a destroyed enclave's EPC pages
        (EREMOVE, no write-back) and the cache lines it occupied: after
        this call :attr:`resident_bytes` is zero and the shared EPC/LLC
        no longer carry any of this memory's pages or lines, so a dead
        shard stops exerting paging pressure on its platform.
        Idempotent; returns the bytes released.
        """
        if self.released:
            return 0
        self.released = True
        released = self.resident_bytes
        self._freed_bytes = self._next_address
        if self.enclave:
            self.epc.release_owner(self.name)
        self.llc.release_owner(self.name)
        return released

    def watermark_exceeded(self, fraction):
        """Whether the resident set crossed ``fraction`` of the usable EPC.

        Non-enclave memories never page, so the watermark never trips.
        This is the signal an EPC-pressure-driven sharding policy polls
        before admitting more state into one enclave.
        """
        if not self.enclave:
            return False
        return self.resident_bytes >= fraction * self.costs.epc_usable

    def compute(self, cycles):
        """Charge pure computation (identical inside and outside)."""
        self.stats.cycles_compute += cycles
        self.clock.charge(cycles)

    def access(self, region, offset=0, size=None, write=False):
        """Touch ``size`` bytes of ``region`` starting at ``offset``.

        Charges page faults (enclave only) plus per-line LLC costs and
        updates :attr:`stats`.  Returns the cycles charged.  Writes pay
        the same read-modify-write path in this model; the MEE encrypts
        on writeback, folded into mee_read_cycles.
        """
        return self.scan((region,), size, offset=offset)

    def scan(self, regions, size=None, compute_cycles=0, offset=0):
        """Touch ``size`` bytes at ``offset`` of each region, in the
        given order, with ``compute_cycles`` of work per region.

        One of the three places memory is touched (the others are
        :meth:`scan_strided` and :meth:`scan_keys`): per region, pages
        (enclave only) then lines.  Charges what one :meth:`access` and one
        :meth:`compute` per region would, but totals hits, misses and
        faults as ints and settles stats, EPC counters and clock once
        -- also when a region is out of bounds, so what the LRUs saw is
        what is charged.  Nothing may sample the clock between two
        visits of one scan.  Returns the memory cycles.
        """
        if self.released:
            raise CapacityError("memory %r was released" % self.name)
        if offset < 0:
            raise CapacityError("access outside region bounds")
        per_region = int(compute_cycles)
        if per_region < 0:
            raise ValueError("cannot charge a negative number of cycles")
        costs = self.costs
        enclave = self.enclave
        line_size = costs.line_size
        page_size = costs.page_size
        line_base = self._line_base
        page_base = self._page_base
        # The LLC and the EPC are independent LRUs, so each is handed
        # its own run of keys (a key equal to its predecessor dropped:
        # re-touching the newest entry is a no-op), at most _RUN at a
        # time.  A region spanning several keys sends all but its last
        # as a range, after what was collected before it.
        touch_lines = self.llc.touch_many
        newest_line = self.llc.newest
        line_keys = []
        page_keys = []
        if enclave:
            touch_pages = self.epc.touch_many
            newest_page = self.epc.newest
        visited = lines = misses = pages = faults = 0
        try:
            for region in regions:
                span = region.size - offset if size is None else size
                if span < 0 or offset + span > region.size:
                    raise CapacityError("access outside region bounds")
                visited += 1
                if span == 0:
                    continue
                start = region.base + offset
                last = start + span - 1
                if enclave:
                    key = page_base + start // page_size
                    stop = page_base + last // page_size
                    pages += stop - key + 1
                    if key == newest_page:
                        key += 1
                    if key <= stop:
                        if key < stop:
                            faults += (touch_pages(page_keys)
                                       + touch_pages(range(key, stop)))
                            del page_keys[:]
                        page_keys.append(stop)
                        newest_page = stop
                key = line_base + start // line_size
                stop = line_base + last // line_size
                lines += stop - key + 1
                if key == newest_line:
                    key += 1
                if key <= stop:
                    if key < stop:
                        misses += (touch_lines(line_keys)
                                   + touch_lines(range(key, stop)))
                        del line_keys[:]
                    line_keys.append(stop)
                    newest_line = stop
                if len(line_keys) >= _RUN:
                    # Page keys outnumber line keys by one at most.
                    misses += touch_lines(line_keys)
                    del line_keys[:]
                    if page_keys:
                        faults += touch_pages(page_keys)
                        del page_keys[:]
        finally:
            misses += touch_lines(line_keys)
            if page_keys:
                faults += touch_pages(page_keys)
            charged = self._settle(
                lines, misses, pages, faults, visited * per_region
            )
        return charged

    def scan_strided(self, base, stride, count, size, compute_cycles=0):
        """Touch ``size`` bytes at ``base + i * stride`` for each ``i``
        below ``count``, with ``compute_cycles`` of work per record:
        exactly what :meth:`scan` charges for those regions, in order.

        Another place memory is touched, for a table of equal records
        laid out back to back.  When each span lies inside one cache
        line and the stride is a whole number of lines that divides the
        page, record ``i`` touches line ``first + i * stride /
        line_size`` (all distinct) and a page at most one past the
        previous record's.  So the LLC gets one strided ``range`` and
        the EPC one ``range`` of the pages in between: a page repeated
        by the next record is the newest key, and re-touching it is a
        no-op hit that the load count keeps.  No region is built.  Any
        other geometry is handed to :meth:`scan` region by region.
        """
        costs = self.costs
        line_size = costs.line_size
        if not (count > 0 and 0 < size <= line_size - base % line_size
                and stride > 0 and costs.page_size % stride == 0
                and stride % line_size == 0):
            return self.scan(
                (MemoryRegion(base + i * stride, size) for i in range(count)),
                size, compute_cycles,
            )
        if self.released:
            raise CapacityError("memory %r was released" % self.name)
        per_record = int(compute_cycles)
        if per_record < 0:
            raise ValueError("cannot charge a negative number of cycles")
        step = stride // line_size
        first = self._line_base + base // line_size
        misses = self.llc.touch_many(range(first, first + count * step, step))
        faults = 0
        if self.enclave:
            page_size = costs.page_size
            first = self._page_base + base // page_size
            last = self._page_base + (base + (count - 1) * stride) // page_size
            faults = self.epc.touch_many(range(first, last + 1))
        return self._settle(count, misses, count, faults, count * per_record)

    def span_keys(self, start, size):
        """The LLC line keys and EPC page keys that touching ``size``
        bytes at ``start`` reads, as ``(lines, pages)``: each the key
        itself when the span lies in one line (page), else a tuple of
        the keys in order -- empty for no bytes, and for pages on a
        native memory.  What :meth:`scan` would touch for that span,
        derived once by a caller that visits it again and again."""
        if size <= 0:
            return (), ()
        last = start + size - 1
        costs = self.costs
        lines = self._keys(self._line_base, start, last, costs.line_size)
        if not self.enclave:
            return lines, ()
        return lines, self._keys(self._page_base, start, last,
                                 costs.page_size)

    @staticmethod
    def _keys(key_base, start, last, size):
        first = key_base + start // size
        stop = key_base + last // size
        return first if first == stop else tuple(range(first, stop + 1))

    def scan_keys(self, lines, pages, visits, compute_cycles=0):
        """Charge ``visits`` visits whose keys the caller derived with
        :meth:`span_keys`: ``lines`` and ``pages`` list every key they
        touch, in visit order, and each visit costs ``compute_cycles``.

        The third place memory is touched, for a walk that visits the
        same records again and again (a containment forest).  It charges
        what :meth:`scan` charges for the visited spans, in the same
        order: the LLC and the EPC are independent LRUs, so each may be
        handed its own run, and a key equal to its predecessor -- which
        ``scan`` drops -- is the newest key, whose re-touch is a no-op
        hit that the counts keep.  One :meth:`_LruSet.touch_many` per
        cache and one settle.  ``pages`` is ignored on a native memory.
        A caller holds at most ``_RUN`` keys per call, as ``scan`` does.
        """
        if self.released:
            raise CapacityError("memory %r was released" % self.name)
        per_visit = int(compute_cycles)
        if per_visit < 0:
            raise ValueError("cannot charge a negative number of cycles")
        misses = self.llc.touch_many(lines)
        if not self.enclave:
            return self._settle(len(lines), misses, 0, 0, visits * per_visit)
        return self._settle(len(lines), misses, len(pages),
                            self.epc.touch_many(pages), visits * per_visit)

    def _settle(self, lines, misses, pages, faults, compute):
        """Charge one scan's totals to the stats, the EPC counters and
        the clock; returns the memory cycles."""
        costs = self.costs
        hits = lines - misses
        charged = (
            faults * costs.page_fault_cycles
            + hits * costs.llc_hit_cycles
            + misses * (costs.mee_read_cycles if self.enclave
                        else costs.dram_cycles)
        )
        stats = self.stats
        stats.accesses += lines
        stats.llc_hits += hits
        stats.llc_misses += misses
        stats.page_faults += faults
        stats.cycles_memory += charged
        stats.cycles_compute += compute
        if self.enclave:
            self.epc.loads += pages
            self.epc.faults += faults
        self.clock.charge(charged + compute)
        return charged

    def copy(self, source, destination, size=None):
        """Model a memcpy: read the source, write the destination."""
        if size is None:
            size = min(source.size, destination.size)
        return self.scan((source, destination), size)
