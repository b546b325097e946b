"""The linear-scan baseline matcher.

Evaluates every stored subscription against every publication -- the
matcher SCBR's containment index is compared against in the A1
ablation.  Shares the record layout and per-visit cost accounting with
:class:`~repro.scbr.index.ContainmentIndex`, so measured differences
come from the number of comparisons, not from accounting artifacts.
"""

from operator import itemgetter

from repro.errors import ConfigurationError
from repro.scbr.index import DEFAULT_RECORD_BYTES, EVAL_CYCLES, HOT_BYTES


class LinearIndex:
    """Stores subscriptions in a flat, insertion-ordered table."""

    def __init__(self, memory=None, record_bytes=DEFAULT_RECORD_BYTES,
                 hot_bytes=HOT_BYTES, eval_cycles=EVAL_CYCLES):
        self.memory = memory
        self.record_bytes = record_bytes
        self.hot_bytes = hot_bytes
        self.eval_cycles = eval_cycles
        self._entries = []
        self.visits_last_match = 0

    def __len__(self):
        return len(self._entries)

    @property
    def database_bytes(self):
        """Total resident footprint of the subscription database."""
        return len(self._entries) * self.record_bytes

    def insert(self, subscription):
        """Append a subscription to the table."""
        region = None
        if self.memory is not None:
            region = self.memory.allocate(
                self.record_bytes,
                label="sub-%s" % subscription.subscription_id,
            )
        self._entries.append((subscription, region))

    def match(self, publication):
        """IDs of all subscriptions matching ``publication``."""
        if self.memory is not None:
            # The region column, lazily: no 196 608-element list per call.
            self.memory.scan(
                map(itemgetter(1), self._entries),
                self.hot_bytes, self.eval_cycles,
            )
        self.visits_last_match = len(self._entries)
        return {
            subscription.subscription_id
            for subscription, _region in self._entries
            if subscription.matches(publication)
        }

    def subscriptions(self):
        """All stored subscriptions in insertion order."""
        return [subscription for subscription, _region in self._entries]

    def remove(self, subscription_id):
        """Unsubscribe by id (linear search, like everything here)."""
        for position, (subscription, region) in enumerate(self._entries):
            if subscription.subscription_id == subscription_id:
                del self._entries[position]
                if self.memory is not None and region is not None:
                    self.memory.free(region)
                return subscription
        raise ConfigurationError(
            "no subscription %r in the table" % subscription_id
        )

    def roots(self):
        """A flat table has no covering structure: every row is a root."""
        return self.subscriptions()

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
            len(self._entries),
            -(-target_bytes // self.record_bytes),  # ceil
        )
        extracted = []
        for subscription, region in self._entries[:count]:
            if self.memory is not None and region is not None:
                self.memory.free(region)
            extracted.append(subscription)
        del self._entries[:count]
        return extracted
