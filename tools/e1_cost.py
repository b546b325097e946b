"""What one Figure-3 point and the whole E1 sweep cost on the host.

Builds E1's 96 MiB enclave table (a ``LinearIndex`` of 512 B records
cycled from its seeded 8 192-subscription pool, on a ``SimulatedMemory``
with its own EPC) three times and prints the CPU seconds of the build
(the inserts; the pool is made beforehand) with the cyclic GC on, as
``benchmarks/perf`` runs it, and with it off, as ``repro.cli run e1``
runs it, and the traced host bytes the table holds per row.  On the
first table it prints the CPU seconds of the cold match (the first
after the build, which fills the LLC and the EPC) and the CPU
milliseconds of a warm match (the median of the repeats, each against
another publication) and of the same matches with every evaluation
failing at once (``Subscription.matches`` stubbed: the scan charge and
the filter alone), and three properties of the table that a match
relies on: rows per distinct subscription object, and per warm match
(the mean over the repeats) the attribute-set tests, one per distinct
object filed under an attribute the publication carries, and the
evaluations, one per object whose constrained attributes the
publication all carries (counted by wrapping ``Subscription.matches``
in another, untimed pass).  Then it runs
``python -m repro.cli run e1`` in a child process, output discarded,
and prints the child's CPU seconds (user + system).  The matches price
one point of a denser Figure-3 sweep, the last line the sweep that
exists (DESIGN section 5, "A repeated run is a fixed point", "A table
row is a subscription and an address").  Run the same file in a parent
checkout for a before/after
(``cd parent && PYTHONPATH=src python <repo>/tools/e1_cost.py``).

Usage: ``PYTHONPATH=src python tools/e1_cost.py`` from the root of the
checkout to measure (``make e1-cost``); the E1 run needs ``benchmarks/``
in the working directory.
"""

import gc
import resource
import subprocess
import sys
import tracemalloc
from statistics import mean, median
from time import process_time

from repro.scbr.filters import Subscription
from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.sgx.costs import DEFAULT_COSTS, MIB
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock

DATABASE_MIB = 96
RECORD_BYTES = 512
POOL = 8192
REPEATS = 5
ROWS = DATABASE_MIB * MIB // RECORD_BYTES


def build(pool, collect):
    """The table and the CPU seconds of its inserts, with the cyclic GC
    on or off."""
    memory = SimulatedMemory(CycleClock(), DEFAULT_COSTS, enclave=True,
                             epc=EpcModel(DEFAULT_COSTS), name="scbr")
    index = LinearIndex(memory=memory, record_bytes=RECORD_BYTES)
    if not collect:
        gc.disable()
    try:
        start = process_time()
        for position in range(ROWS):
            index.insert(pool[position % POOL])
        return index, process_time() - start
    finally:
        gc.enable()


def bytes_per_row(pool):
    """Traced host memory a built table holds, per row."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index, _seconds = build(pool, collect=True)
        return (tracemalloc.get_traced_memory()[0] - before) / len(index)
    finally:
        tracemalloc.stop()


def filing(index):
    """The table's filing, attribute -> the distinct objects filed under
    it (a set of them, or a map to their masks; ``_by_first``, with a row
    count per object, in trees that filed by first attribute)."""
    if hasattr(index, "_filing"):
        return index._filing
    return index._by_first


def evaluated(index, publications):
    """Per publication, the ``Subscription.matches`` calls its match
    makes."""
    raw = Subscription.matches
    calls = [0]

    def matches(self, publication):
        calls[0] += 1
        return raw(self, publication)

    Subscription.matches = matches
    try:
        counts = []
        for publication in publications:
            calls[0] = 0
            index.match(publication)
            counts.append(calls[0])
        return counts
    finally:
        Subscription.matches = raw


def timed(index, publications):
    """The CPU seconds of each publication's match, in order."""
    seconds = []
    for publication in publications:
        start = process_time()
        index.match(publication)
        seconds.append(process_time() - start)
    return seconds


def unevaluated(index, publications):
    """The median CPU seconds of the matches with every evaluation
    failing at once: the scan charge and the filter."""
    raw = Subscription.matches
    Subscription.matches = lambda self, publication: False
    try:
        return median(timed(index, publications))
    finally:
        Subscription.matches = raw


def matches(index, publications):
    seconds = timed(index, publications)
    warm = publications[1:]
    rows = index.subscriptions()
    tests = mean(
        sum(len(objects) for attribute, objects in filing(index).items()
            if attribute in publication.attributes)
        for publication in warm
    )
    return (seconds[0], median(seconds[1:]), unevaluated(index, warm),
            len(rows) / len(set(rows)), tests, mean(evaluated(index, warm)))


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main():
    workload = ScbrWorkload(seed=42, num_attributes=50,
                            containment_fraction=0.0)
    pool = workload.subscriptions(POOL)
    publications = workload.publications(1 + REPEATS)
    index, build_gc = build(pool, collect=True)
    cold, warm, filtered, per_object, tests, evaluations = matches(
        index, publications
    )
    del index
    build_no_gc = build(pool, collect=False)[1]
    per_row = bytes_per_row(pool)
    print("%d MiB enclave LinearIndex, %d rows: build %.2f CPU-s with GC "
          "on, %.2f with GC off, %.0f host bytes per row"
          % (DATABASE_MIB, ROWS, build_gc, build_no_gc, per_row))
    print("match: cold %.3f CPU-s (first after build), warm %.3f CPU-ms "
          "(median of %d), %.3f CPU-ms of it the scan charge and the filter"
          % (cold, 1e3 * warm, REPEATS, 1e3 * filtered))
    print("table: %.1f rows per distinct subscription; per warm match %.0f "
          "attribute-set tests (distinct objects filed under a carried "
          "attribute), %.0f evaluations (mean of %d)"
          % (per_object, tests, evaluations, REPEATS))
    before = children_cpu()
    subprocess.run([sys.executable, "-m", "repro.cli", "run", "e1"],
                   stdout=subprocess.DEVNULL, check=True)
    print("repro.cli run e1: %.1f CPU-s" % (children_cpu() - before))


if __name__ == "__main__":
    main()
