"""``_LruSet.touch_many`` is ``touch`` in a loop, and ``scan`` may chunk.

``SimulatedMemory.scan`` hands each cache its run of keys through
``touch_many`` and flushes the runs every ``_RUN`` keys; neither may be
observable.  The first test holds ``touch_many`` to ``touch`` on an LRU
of its own (hits, resident order, ``newest``) under interleaved
removals.  The next two hold it to ``touch`` when a range is handed
over twice, with and without one other step in between: an equal range
with nothing in between is a fixed point and is not walked, and
anything else must void that shortcut.  The last drives one scan across
several flushes, with regions that take the list path, regions that
take the range path and an out-of-bounds region in the middle, against
the per-line reference.
"""

import pytest
from hypothesis import example, given, strategies as st

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


between_steps = st.one_of(
    st.none(),
    st.tuples(st.just("touch"), keys),
    st.tuples(st.just("touch_many"), st.lists(keys, max_size=8)),
    st.tuples(st.just("range"), st.integers(0, 24), st.integers(0, 16),
              st.integers(1, 3)),
    st.tuples(st.just("discard"), keys),
    st.tuples(st.just("release"), st.sampled_from(OWNERS)),
    st.tuples(st.just("clear")),
)


def owner_a_range(lru, start, length, step):
    first = lru.key_base("a") + start
    return range(first, first + length * step, step)


@given(st.integers(1, 12), st.integers(-12, 12), st.integers(0, 24),
       st.integers(1, 3), st.lists(keys, max_size=24), between_steps)
@example(4, -1, 0, 1, [], None)  # n < C
@example(4, 0, 2, 1, [("b", 1)], None)  # n == C
@example(4, 3, 0, 2, [], None)  # n > C, step > 1
@example(4, -4, 5, 1, [("a", 5)], None)  # the empty range
@example(4, 0, 0, 1, [], ("touch", ("a", 1)))
@example(4, 0, 0, 1, [], ("discard", ("a", 1)))
def test_a_repeated_range_is_touch_in_a_loop(
    capacity, offset, start, step, prelude, between
):
    """Touch a range, maybe do one other step, touch an equal range:
    the repeat may skip the walk only when nothing came in between."""
    one_by_one, batched = _LruSet(capacity), _LruSet(capacity)
    for lru in (one_by_one, batched):
        for owner in OWNERS:
            lru.key_base(owner)  # the same bases on both sides

    def touch_both(run):
        misses = sum(not one_by_one.touch(key) for key in run)
        assert batched.touch_many(run) == misses

    def agree():
        assert batched.keys() == one_by_one.keys()
        assert batched.newest == one_by_one.newest

    touch_both([one_by_one.key_base(owner) + ident
                for owner, ident in prelude])
    length = max(0, capacity + offset)
    touch_both(owner_a_range(batched, start, length, step))
    agree()
    if between is not None:
        kind, *argument = between
        if kind == "touch":
            (owner, ident), = argument
            key = one_by_one.key_base(owner) + ident
            assert batched.touch(key) == one_by_one.touch(key)
        elif kind == "touch_many":
            touch_both([one_by_one.key_base(owner) + ident
                        for owner, ident in argument[0]])
        elif kind == "range":
            touch_both(owner_a_range(batched, *argument))
        elif kind == "discard":
            (owner, ident), = argument
            for lru in (one_by_one, batched):
                lru.discard(lru.key_base(owner) + ident)
        elif kind == "release":
            assert (batched.release_owner(argument[0])
                    == one_by_one.release_owner(argument[0]))
        else:
            one_by_one.clear()
            batched.clear()
        agree()
    # An equal range, not the same object: equality is what counts.
    touch_both(owner_a_range(batched, start, length, step))
    agree()


def test_a_repeated_range_is_not_walked():
    lru = _LruSet(4)
    # Four keys fit (every repeat hits), six do not (every one misses).
    for run, misses in ((range(0, 12, 3), 0), (range(100, 106), 6)):
        lru.touch_many(run)
        entries, lru._entries = lru._entries, None  # a walk would raise
        assert lru.touch_many(range(run.start, run.stop, run.step)) == misses
        lru._entries = entries


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
