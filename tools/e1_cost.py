"""What one Figure-3 point and the whole E1 sweep cost on the host.

Builds E1's 96 MiB enclave table (a ``LinearIndex`` of 512 B records
cycled from its seeded 8 192-subscription pool, on a ``SimulatedMemory``
with its own EPC) and prints the CPU seconds of the build, of the cold
match (the first after the build, which fills the LLC and the EPC) and
of a warm match (the median of the repeats, each against another
publication).  It also prints two properties of the table that a match
relies on: rows per distinct subscription object, and the share of rows
whose first constrained attribute the publication carries (the mean
over the matched publications).  Then it runs ``python -m repro.cli run
e1`` in a child process, output discarded, and prints the child's CPU
seconds (user + system).  The matches price one point of a denser
Figure-3 sweep, the last line the sweep that exists (DESIGN section 5,
"A repeated run is a fixed point").  Run the same file in a parent
checkout for a before/after
(``cd parent && PYTHONPATH=src python <repo>/tools/e1_cost.py``).

Usage: ``PYTHONPATH=src python tools/e1_cost.py`` from the root of the
checkout to measure (``make e1-cost``); the E1 run needs ``benchmarks/``
in the working directory.
"""

import resource
import subprocess
import sys
from statistics import mean, median
from time import process_time

from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.sgx.costs import DEFAULT_COSTS, MIB
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock

DATABASE_MIB = 96
RECORD_BYTES = 512
POOL = 8192
REPEATS = 5


def matches():
    start = process_time()
    workload = ScbrWorkload(seed=42, num_attributes=50,
                            containment_fraction=0.0)
    pool = workload.subscriptions(POOL)
    publications = workload.publications(1 + REPEATS)
    memory = SimulatedMemory(CycleClock(), DEFAULT_COSTS, enclave=True,
                             epc=EpcModel(DEFAULT_COSTS), name="scbr")
    index = LinearIndex(memory=memory, record_bytes=RECORD_BYTES)
    for position in range(DATABASE_MIB * MIB // RECORD_BYTES):
        index.insert(pool[position % POOL])
    build = process_time() - start
    seconds = []
    for publication in publications:
        start = process_time()
        index.match(publication)
        seconds.append(process_time() - start)
    rows = index.subscriptions()
    firsts = [next(iter(row.constraints)) for row in rows]
    carried = mean(
        sum(first in publication.attributes for first in firsts) / len(rows)
        for publication in publications
    )
    return (build, seconds[0], median(seconds[1:]), len(rows),
            len(rows) / len(set(rows)), carried, len(publications))


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main():
    build, cold, warm, rows, per_object, carried, published = matches()
    print("%d MiB enclave LinearIndex: build %.2f CPU-s, cold match %.3f "
          "CPU-s (first after build), warm match %.4f CPU-s (median of %d)"
          % (DATABASE_MIB, build, cold, warm, REPEATS))
    print("table: %d rows, %.1f rows per distinct subscription, %.1f %% of "
          "rows carry a first attribute the publication has (mean of %d)"
          % (rows, per_object, 100 * carried, published))
    before = children_cpu()
    subprocess.run([sys.executable, "-m", "repro.cli", "run", "e1"],
                   stdout=subprocess.DEVNULL, check=True)
    print("repro.cli run e1: %.1f CPU-s" % (children_cpu() - before))


if __name__ == "__main__":
    main()
