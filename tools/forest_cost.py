"""What building a wide containment forest costs on the host.

Makes the 20 000 subscriptions of ``ScbrWorkload(seed=30,
num_attributes=20)`` (2 to 4 constraints each over 20 Zipf-skewed
attributes, so covering is rare and the forest is wide) and inserts them
into a memory-less ``ContainmentIndex`` several times.  It prints the
CPU seconds of each build (the inserts; the pool is made beforehand),
their median, and the forest's root count and depth; then it builds once
more with ``Subscription.covers`` wrapped in a counter and prints the
``covers`` calls that build made (the counted build is not timed), in
all and by where: the search for the root to descend into
(``_first_root_covering``, found or not), the search for the roots a new
root covers (``_roots_covered_by``) and below the roots.

The hooks are installed by name on the classes, so the same file runs
unchanged in a parent checkout for a before/after
(``cd parent && PYTHONPATH=src python <repo>/tools/forest_cost.py``).
Host timings drift over minutes, so compare trees with alternating
runs.

Usage: ``PYTHONPATH=src python tools/forest_cost.py [builds]`` from the
root of the checkout to measure (``make forest-cost``).
"""

import sys
from statistics import median
from time import process_time

from repro.scbr.filters import Subscription
from repro.scbr.index import ContainmentIndex
from repro.scbr.workload import ScbrWorkload

SEED = 30
ATTRIBUTES = 20
SUBSCRIPTIONS = 20_000
BUILDS = 3


def build(pool):
    """A forest of ``pool`` and the CPU seconds of its inserts."""
    index = ContainmentIndex()
    start = process_time()
    for subscription in pool:
        index.insert(subscription)
    return index, process_time() - start


def covers_calls(pool):
    """The ``Subscription.covers`` calls one build of ``pool`` makes, by
    where they are made: the search for the root to descend into (split
    by whether it finds one), the search for the roots a new root
    covers, and below the roots (the descent and its landing level)."""
    raw = Subscription.covers
    searches = {
        name: getattr(ContainmentIndex, name)
        for name in ("_first_root_covering", "_roots_covered_by")
    }
    total = [0]
    calls = {"found": 0, "not found": 0, "covered roots": 0}

    def covers(self, other):
        total[0] += 1
        return raw(self, other)

    def first_root_covering(index, subscription, mask):
        before = total[0]
        found = searches["_first_root_covering"](index, subscription, mask)
        calls["found" if found is not None else "not found"] += \
            total[0] - before
        return found

    def roots_covered_by(index, subscription, mask):
        before = total[0]
        covered = searches["_roots_covered_by"](index, subscription, mask)
        calls["covered roots"] += total[0] - before
        return covered

    Subscription.covers = covers
    ContainmentIndex._first_root_covering = first_root_covering
    ContainmentIndex._roots_covered_by = roots_covered_by
    try:
        build(pool)
    finally:
        Subscription.covers = raw
        for name, search in searches.items():
            setattr(ContainmentIndex, name, search)
    calls["below"] = total[0] - sum(calls.values())
    return calls


def main(argv):
    builds = int(argv[0]) if argv else BUILDS
    pool = ScbrWorkload(seed=SEED, num_attributes=ATTRIBUTES).subscriptions(
        SUBSCRIPTIONS
    )
    seconds = []
    for _ in range(builds):
        index, cpu_s = build(pool)
        seconds.append(cpu_s)
    print("ContainmentIndex build, %d subscriptions (seed %d, %d "
          "attributes): %.3f CPU-s median of %d (%s)"
          % (SUBSCRIPTIONS, SEED, ATTRIBUTES, median(seconds), builds,
             ", ".join("%.3f" % value for value in seconds)))
    calls = covers_calls(pool)
    print("forest: %d roots, depth %d; %d covers calls per build"
          % (len(index._roots), index.depth(), sum(calls.values())))
    print("covers calls: root search %d found + %d not found, roots a new "
          "root covers %d, below the roots %d"
          % (calls["found"], calls["not found"], calls["covered roots"],
             calls["below"]))


if __name__ == "__main__":
    main(sys.argv[1:])
