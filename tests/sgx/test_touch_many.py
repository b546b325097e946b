"""``_LruSet.touch_many`` is ``touch`` in a loop, and ``scan`` may chunk.

``SimulatedMemory.scan`` hands each cache its run of keys through
``touch_many`` and flushes the runs every ``_RUN`` keys; neither may be
observable.  The first test holds ``touch_many`` to ``touch`` on an LRU
of its own (hits, resident order, ``newest``) under interleaved
removals; the second drives one scan across several flushes, with
regions that take the list path, regions that take the range path and
an out-of-bounds region in the middle, against the per-line reference.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CapacityError
from repro.sgx.memory import _RUN, _LruSet

from tests.sgx.test_memory_differential import LINE, enclave_pair

OWNERS = ("a", "b", "c")
keys = st.tuples(st.sampled_from(OWNERS), st.integers(0, 40))
steps = st.one_of(
    st.tuples(st.just("touch"), st.lists(keys, max_size=30)),
    st.tuples(st.just("discard"), keys),
    st.tuples(st.just("release"), st.sampled_from(OWNERS)),
)


@given(st.integers(1, 64), st.lists(steps, max_size=30))
def test_touch_many_is_touch_in_a_loop(capacity, script):
    one_by_one, batched = _LruSet(capacity), _LruSet(capacity)
    for kind, argument in script:
        for lru in (one_by_one, batched):
            if kind == "discard":
                owner, ident = argument
                lru.discard(lru.key_base(owner) + ident)
            elif kind == "release":
                lru.release_owner(argument)
        if kind == "touch":
            run = [one_by_one.key_base(owner) + ident
                   for owner, ident in argument]
            assert run == [batched.key_base(owner) + ident
                           for owner, ident in argument]
            misses = sum(not one_by_one.touch(key) for key in run)
            # Any iterable, consumed once: scan passes lists and ranges.
            assert batched.touch_many(iter(run)) == misses
        assert batched.keys() == one_by_one.keys()
        assert batched.newest == one_by_one.newest
        assert len(batched) <= capacity


def test_one_scan_across_several_flushes_equals_the_per_line_reference():
    real, reference = enclave_pair(pages=16, lines=32)
    memory, oracle = real.memories[0], reference.memories[0]
    # Mostly line-sized regions, every seventh 100 bytes long: from
    # there on starts are unaligned and a LINE-byte visit spans two
    # lines (the range path) until the next odd size re-aligns some.
    sizes = [100 if position % 7 == 3 else LINE
             for position in range(2 * _RUN + 300)]
    short = _RUN + 50
    sizes[short] = LINE - 24  # a LINE-byte visit is out of bounds here
    regions = [memory.allocate(size) for size in sizes]
    assert [oracle.allocate(size) for size in sizes] == regions

    def reference_visits(visited):
        for region in visited:
            oracle.access(region, size=LINE)
            oracle.compute(150)

    with pytest.raises(CapacityError):
        memory.scan(iter(regions), LINE, compute_cycles=150)
    reference_visits(regions[:short])
    assert real.state() == reference.state()
    assert memory.stats.cycles_compute == short * 150

    # The rest in one scan (more than a flush's worth), then the head
    # again: whatever the flushes left in the LRUs is what is hit now.
    rest = regions[short + 1:]
    assert len(rest) > _RUN
    memory.scan(iter(rest), LINE, compute_cycles=150)
    reference_visits(rest)
    assert real.state() == reference.state()
    memory.scan(regions[:40] + regions[:40], LINE)
    for region in regions[:40] + regions[:40]:
        oracle.access(region, size=LINE)
    assert real.state() == reference.state()
    assert memory.stats.llc_misses > 0 and memory.stats.llc_hits > 0
    assert memory.stats.page_faults > 0
