"""An enclave-efficient matcher: the paper's stated future work.

Section V-B closes with: "These first results open the way for further
research to minimise memory footprint and build an enclave-efficient
system.  We intend to optimise our data structures to avoid paging and
cache misses."

:class:`HotColdIndex` implements that optimisation.  The per-visit
traffic of the baseline matcher touches one line of a 512-byte record,
so 7/8 of every fetched EPC page is dead weight; once the database
exceeds the usable EPC, every visited page is swapped by the OS.  The
hot/cold split stores the 64-byte *constraint summaries* (everything
the matcher evaluates) densely packed in a contiguous arena -- 8x
smaller than the full records -- while the cold remainder (payload
routing data, subscriber identity, bookkeeping) is only touched for the
few subscriptions that actually match.

Effect on the Figure 3 experiment: with a 200 MB logical database the
hot arena is 25 MB, far below the usable EPC, so matching never pages;
the enclave overhead collapses from ~18x back to the MEE-only regime.
The A8 benchmark quantifies this.
"""

from repro.errors import ConfigurationError
from repro.scbr.index import DEFAULT_RECORD_BYTES, EVAL_CYCLES, HOT_BYTES


class HotColdIndex:
    """Linear matcher over a packed hot arena with cold records aside.

    Interface-compatible with :class:`~repro.scbr.naive.LinearIndex`
    (insert / match / remove / database_bytes), so the Figure 3 harness
    can swap matchers.
    """

    # Hot summaries are packed in page-sized arena blocks so that the
    # bump allocator's interleaving of cold records cannot fragment
    # the hot scan path.
    ARENA_BLOCK_SLOTS = 64

    def __init__(self, memory=None, record_bytes=DEFAULT_RECORD_BYTES,
                 hot_bytes=HOT_BYTES, eval_cycles=EVAL_CYCLES):
        if record_bytes < hot_bytes:
            raise ConfigurationError("record_bytes must cover hot_bytes")
        self.memory = memory
        self.record_bytes = record_bytes
        self.hot_bytes = hot_bytes
        self.cold_bytes = record_bytes - hot_bytes
        self.eval_cycles = eval_cycles
        self._entries = []           # (subscription, hot_region, cold_region)
        self._arena_block = None
        self._arena_used = 0
        self.visits_last_match = 0
        self.cold_reads_last_match = 0

    def __len__(self):
        return len(self._entries)

    @property
    def database_bytes(self):
        """Logical footprint (hot + cold), comparable to the baseline."""
        return len(self._entries) * self.record_bytes

    @property
    def hot_bytes_total(self):
        """Resident bytes the matcher actually scans."""
        return len(self._entries) * self.hot_bytes

    def _allocate_hot(self):
        if self.memory is None:
            return None
        if self._arena_block is None or self._arena_used >= self.ARENA_BLOCK_SLOTS:
            self._arena_block = self.memory.allocate_aligned(
                self.ARENA_BLOCK_SLOTS * self.hot_bytes, label="hot-arena"
            )
            self._arena_used = 0
        region = self._arena_block.slice(
            self._arena_used * self.hot_bytes, self.hot_bytes
        )
        self._arena_used += 1
        return region

    def insert(self, subscription):
        """Add a subscription: summary into the arena, rest kept cold."""
        hot_region = self._allocate_hot()
        cold_region = None
        if self.memory is not None and self.cold_bytes:
            cold_region = self.memory.allocate(
                self.cold_bytes,
                label="cold-%s" % subscription.subscription_id,
            )
        self._entries.append((subscription, hot_region, cold_region))

    def remove(self, subscription_id):
        """Unsubscribe (linear search; arena slot is simply retired)."""
        for position, (subscription, _hot, _cold) in enumerate(self._entries):
            if subscription.subscription_id == subscription_id:
                del self._entries[position]
                return subscription
        raise ConfigurationError(
            "no subscription %r in the index" % subscription_id
        )

    def match(self, publication):
        """IDs of all matching subscriptions.

        Scans only hot summaries; touches a cold record exactly once
        per *match* (to produce the notification), never per visit.
        """
        matched = []
        visited = []
        for subscription, hot_region, cold_region in self._entries:
            visited.append(hot_region)
            if subscription.matches(publication):
                matched.append(subscription.subscription_id)
                if cold_region is not None:
                    visited.append(cold_region)
        if self.memory is not None:
            # Hot slots are exactly hot_bytes long, so "the whole region"
            # is the hot read for a summary and the cold read for a
            # record; the order above is the order the LRUs must see.
            self.memory.scan(visited)
            self.memory.compute(len(self._entries) * self.eval_cycles)
        self.visits_last_match = len(self._entries)
        self.cold_reads_last_match = len(visited) - len(self._entries)
        return set(matched)

    def subscriptions(self):
        """All stored subscriptions in insertion order."""
        return [entry[0] for entry in self._entries]
