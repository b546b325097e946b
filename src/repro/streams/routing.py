"""Key-range routing for the sealed streaming plane.

Stream keys (meter ids) hash into a fixed 16-bit slot space; ingest
shards own contiguous, disjoint slot ranges that together cover the
whole space.  The hash is public (the head-end routes by it), so the
untrusted driver learns only a pseudonymous slot per batch -- never a
reading.  Ranges split at their midpoint when a shard runs hot and
merge back with an adjacent sibling when load drains; the routing
table's epoch counts cutovers so sources and tests can tell when
ownership changed.
"""

import hashlib
from dataclasses import dataclass

from repro.errors import ConfigurationError

KEY_SPACE = 1 << 16


def key_slot(key):
    """The routing slot of a stream key (stable, public)."""
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:2], "big")


@dataclass(frozen=True)
class KeyRange:
    """A half-open slot interval ``[lo, hi)``."""

    lo: int
    hi: int

    def __post_init__(self):
        if not 0 <= self.lo < self.hi <= KEY_SPACE:
            raise ConfigurationError(
                "invalid key range [%r, %r)" % (self.lo, self.hi)
            )

    def contains(self, slot):
        return self.lo <= slot < self.hi

    @property
    def width(self):
        return self.hi - self.lo

    def split(self):
        """Halve at the midpoint; returns ``(low, high)``."""
        if self.width < 2:
            raise ConfigurationError(
                "range [%d, %d) is a single slot; cannot split"
                % (self.lo, self.hi)
            )
        mid = self.lo + self.width // 2
        return KeyRange(self.lo, mid), KeyRange(mid, self.hi)

    def adjacent(self, other):
        return self.hi == other.lo or other.hi == self.lo

    def merge(self, other):
        if not self.adjacent(other):
            raise ConfigurationError(
                "ranges [%d, %d) and [%d, %d) are not adjacent"
                % (self.lo, self.hi, other.lo, other.hi)
            )
        return KeyRange(min(self.lo, other.lo), max(self.hi, other.hi))

    def to_json(self):
        return [self.lo, self.hi]

    @classmethod
    def from_json(cls, pair):
        return cls(int(pair[0]), int(pair[1]))


class RoutingTable:
    """shard id -> owned :class:`KeyRange`, covering the slot space.

    Invariant-checked on every mutation: ranges stay disjoint and their
    union stays exactly ``[0, KEY_SPACE)`` -- a record always has
    exactly one owner, so routing can lose nothing and duplicate
    nothing by construction.
    """

    def __init__(self, ranges):
        self._ranges = dict(ranges)
        self.epoch = 0
        self.check_invariants()

    @classmethod
    def even(cls, shard_ids):
        """Cover the slot space evenly across ``shard_ids`` (in order)."""
        shard_ids = list(shard_ids)
        if not shard_ids:
            raise ConfigurationError("a routing table needs shards")
        count = len(shard_ids)
        bounds = [KEY_SPACE * index // count for index in range(count + 1)]
        return cls({
            shard_id: KeyRange(bounds[index], bounds[index + 1])
            for index, shard_id in enumerate(shard_ids)
        })

    def __len__(self):
        return len(self._ranges)

    def __contains__(self, shard_id):
        return shard_id in self._ranges

    def shard_ids(self):
        return sorted(self._ranges)

    def range_of(self, shard_id):
        owned = self._ranges.get(shard_id)
        if owned is None:
            raise ConfigurationError(
                "shard %r owns no key range" % (shard_id,)
            )
        return owned

    def owner_of_slot(self, slot):
        for shard_id, owned in self._ranges.items():
            if owned.contains(slot):
                return shard_id
        raise ConfigurationError("slot %r has no owner" % (slot,))

    def owner(self, key):
        return self.owner_of_slot(key_slot(key))

    def split(self, shard_id, new_shard_id):
        """Split ``shard_id``'s range; the upper half moves to
        ``new_shard_id``.  Returns ``(kept, moved)``."""
        if new_shard_id in self._ranges:
            raise ConfigurationError(
                "shard %r already owns a range" % (new_shard_id,)
            )
        kept, moved = self.range_of(shard_id).split()
        self._ranges[shard_id] = kept
        self._ranges[new_shard_id] = moved
        self.epoch += 1
        self.check_invariants()
        return kept, moved

    def merge(self, into_shard_id, retired_shard_id):
        """Fold ``retired_shard_id``'s range into an adjacent sibling.

        Returns the merged range now owned by ``into_shard_id``.
        """
        keep = self.range_of(into_shard_id)
        gone = self.range_of(retired_shard_id)
        merged = keep.merge(gone)
        del self._ranges[retired_shard_id]
        self._ranges[into_shard_id] = merged
        self.epoch += 1
        self.check_invariants()
        return merged

    def neighbour(self, shard_id):
        """An adjacent shard (the merge partner), or None."""
        owned = self.range_of(shard_id)
        for other_id, other in sorted(self._ranges.items()):
            if other_id != shard_id and owned.adjacent(other):
                return other_id
        return None

    def check_invariants(self):
        spans = sorted(
            (owned.lo, owned.hi) for owned in self._ranges.values()
        )
        cursor = 0
        for lo, hi in spans:
            if lo != cursor:
                raise ConfigurationError(
                    "routing table has a gap or overlap at slot %d" % lo
                )
            cursor = hi
        if cursor != KEY_SPACE:
            raise ConfigurationError(
                "routing table covers only [0, %d) of [0, %d)"
                % (cursor, KEY_SPACE)
            )

    def to_json(self):
        return {
            str(shard_id): owned.to_json()
            for shard_id, owned in sorted(self._ranges.items())
        }
