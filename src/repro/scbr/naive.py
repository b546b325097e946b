"""The linear-scan baseline matcher.

Evaluates every stored subscription against every publication -- the
matcher SCBR's containment index is compared against in the A1
ablation.  Shares the record layout and per-visit cost accounting with
:class:`~repro.scbr.index.ContainmentIndex`, so measured differences
come from the number of comparisons, not from accounting artifacts.

A table whose records form one run -- back to back in insertion order,
as the bump allocator lays them out when nothing else allocates in
between -- is charged through
:meth:`~repro.sgx.memory.SimulatedMemory.scan_strided` (base, record
size, count) instead of one region per record.  Whether it does is not
an option but a property of the layout, read off the first and last
record: a middle ``remove`` or a foreign allocation between two inserts
leaves a gap and the table falls back to ``scan``; ``extract_subtrees``
takes rows from the front and keeps the run.  Either path charges the
same cycles.

Charging is per row; evaluating is not.  A subscription matches only a
publication that carries every attribute it constrains, and a table
may hold one subscription object in many rows, so the table also
counts the rows holding each distinct object and files the object
once, under the one of its constrained attributes whose filing was
smallest when the object first arrived, with the bit mask of its
constrained attributes (:class:`~repro.scbr.index.AttributeBits`, whose
bits only inserts hand out).  ``match`` computes the mask of the
attributes the publication carries once, looks only at the objects
filed under one of them, and evaluates only those whose mask lies
inside it -- one integer test -- so the match set is the same.

A row is a subscription and an address, kept in two flat columns: the
subscription objects, and (with a memory) each record's base address
as a machine int.  No container is built per row, so the cyclic GC has
nothing per row to walk; a :class:`~repro.sgx.memory.MemoryRegion` is
built only where one is consumed -- to free a record, and for the
``scan`` fallback.
"""

from array import array

from repro.errors import ConfigurationError
from repro.scbr.index import (
    DEFAULT_RECORD_BYTES,
    EVAL_CYCLES,
    HOT_BYTES,
    AttributeBits,
)
from repro.sgx.memory import MemoryRegion


class LinearIndex:
    """Stores subscriptions in a flat, insertion-ordered table."""

    def __init__(self, memory=None, record_bytes=DEFAULT_RECORD_BYTES,
                 hot_bytes=HOT_BYTES, eval_cycles=EVAL_CYCLES):
        if record_bytes < hot_bytes:
            raise ConfigurationError("record_bytes must cover hot_bytes")
        self.memory = memory
        self.record_bytes = record_bytes
        self.hot_bytes = hot_bytes
        self.eval_cycles = eval_cycles
        self._subscriptions = []
        self._bases = array("q")  # one per row when there is a memory
        # Subscription object -> rows holding it; constrained attribute
        # -> its bit; and constrained attribute -> {object: the mask of
        # its constrained attributes} for the objects filed under it
        # (each under one only).
        self._rows = {}
        self._bits = AttributeBits()
        self._filing = {}
        self.visits_last_match = 0

    def __len__(self):
        return len(self._subscriptions)

    @property
    def database_bytes(self):
        """Total resident footprint of the subscription database."""
        return len(self._subscriptions) * self.record_bytes

    def insert(self, subscription):
        """Append a subscription to the table."""
        if self.memory is not None:
            self._bases.append(self.memory.reserve(self.record_bytes))
        self._subscriptions.append(subscription)
        rows = self._rows
        count = rows.get(subscription)
        if count:
            rows[subscription] = count + 1
            return
        rows[subscription] = 1
        filing = self._filing
        constraints = subscription.constraints
        home = min(constraints,
                   key=lambda attribute: len(filing.get(attribute, ())))
        mask = self._bits.grow(constraints)
        filing.setdefault(home, {})[subscription] = mask

    def _unfile(self, subscription):
        """Forget one row holding ``subscription``; no zero count stays,
        and no attribute with nothing filed under it."""
        rows = self._rows
        count = rows.pop(subscription)
        if count > 1:
            rows[subscription] = count - 1
            return
        filing = self._filing
        for attribute in subscription.constraints:
            filed = filing.get(attribute)
            if filed is not None and subscription in filed:
                del filed[subscription]
                if not filed:
                    del filing[attribute]
                return

    @property
    def one_run(self):
        """Whether the records (of an index with a memory) lie back to
        back in insertion order.

        Bump-allocated bases rise by at least ``record_bytes`` from one
        record to the next, so they rise by exactly that everywhere iff
        the last lies ``(n - 1) * record_bytes`` past the first.
        """
        bases = self._bases
        return bool(bases) and (
            bases[-1] - bases[0] == (len(bases) - 1) * self.record_bytes
        )

    def _region(self, base):
        return MemoryRegion(base, self.record_bytes)

    def match(self, publication):
        """IDs of all subscriptions matching ``publication``."""
        bases = self._bases
        if self.memory is not None:
            if self.one_run:
                self.memory.scan_strided(
                    bases[0], self.record_bytes, len(bases),
                    self.hot_bytes, self.eval_cycles,
                )
            else:
                # Regions built lazily: no per-call list of them.
                self.memory.scan(
                    map(self._region, bases),
                    self.hot_bytes, self.eval_cycles,
                )
        self.visits_last_match = len(self._subscriptions)
        if not self._filing:
            return set()
        attributes = publication.attributes
        carried = self._bits.mask(attributes)
        return {
            subscription.subscription_id
            for attribute, filed in self._filing.items()
            if attribute in attributes
            for subscription, mask in filed.items()
            if mask | carried == carried and subscription.matches(publication)
        }

    def subscriptions(self):
        """All stored subscriptions in insertion order."""
        return list(self._subscriptions)

    def remove(self, subscription_id):
        """Unsubscribe by id (linear search, like everything here)."""
        for position, subscription in enumerate(self._subscriptions):
            if subscription.subscription_id == subscription_id:
                del self._subscriptions[position]
                self._unfile(subscription)
                if self.memory is not None:
                    self.memory.free(self._region(self._bases.pop(position)))
                return subscription
        raise ConfigurationError(
            "no subscription %r in the table" % subscription_id
        )

    def covers_any_root(self, subscription):
        """No containment structure to exploit; placement falls back to
        load balancing."""
        return False

    def extract_subtrees(self, target_bytes):
        """Detach oldest entries totalling >= ``target_bytes``.

        Rows are independent (no chains to preserve), so rebalancing
        moves them from the front of the table; freed records leave
        this memory's resident set.
        """
        count = min(
            len(self._subscriptions),
            -(-target_bytes // self.record_bytes),  # ceil
        )
        if self.memory is not None:
            for base in self._bases[:count]:
                self.memory.free(self._region(base))
            del self._bases[:count]
        extracted = self._subscriptions[:count]
        del self._subscriptions[:count]
        for subscription in extracted:
            self._unfile(subscription)
        return extracted
