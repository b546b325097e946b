"""What one Figure-3 point and the whole E1 sweep cost on the host.

Builds E1's 96 MiB enclave table (a ``LinearIndex`` of 512 B records
cycled from its seeded 8 192-subscription pool, on a ``SimulatedMemory``
with its own EPC), matches one publication untimed to warm the caches,
then prints the CPU seconds of one match (the median of three) next to
the set-up's.  Then it runs ``python -m repro.cli run e1`` in a child
process, output discarded, and prints the child's CPU seconds (user +
system).  The first number prices one point of a denser Figure-3 sweep,
the second the sweep that exists (DESIGN section 5, "A table is one
run").  Run the same file in a parent checkout for a before/after
(``cd parent && PYTHONPATH=src python <repo>/tools/e1_cost.py``).

Usage: ``PYTHONPATH=src python tools/e1_cost.py`` from the root of the
checkout to measure (``make e1-cost``); the E1 run needs ``benchmarks/``
in the working directory.
"""

import resource
import subprocess
import sys
from statistics import median
from time import process_time

from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.sgx.costs import DEFAULT_COSTS, MIB
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock

DATABASE_MIB = 96
RECORD_BYTES = 512
POOL = 8192
MATCHES = 3


def one_match():
    start = process_time()
    workload = ScbrWorkload(seed=42, num_attributes=50,
                            containment_fraction=0.0)
    pool = workload.subscriptions(POOL)
    publications = workload.publications(1 + MATCHES)
    memory = SimulatedMemory(CycleClock(), DEFAULT_COSTS, enclave=True,
                             epc=EpcModel(DEFAULT_COSTS), name="scbr")
    index = LinearIndex(memory=memory, record_bytes=RECORD_BYTES)
    for position in range(DATABASE_MIB * MIB // RECORD_BYTES):
        index.insert(pool[position % POOL])
    index.match(publications[0])
    setup = process_time() - start
    seconds = []
    for publication in publications[1:]:
        start = process_time()
        index.match(publication)
        seconds.append(process_time() - start)
    return median(seconds), setup


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main():
    match, setup = one_match()
    print("%d MiB enclave LinearIndex match: %.3f CPU-s (median of %d; "
          "set-up and warm-up %.2f CPU-s)"
          % (DATABASE_MIB, match, MATCHES, setup))
    before = children_cpu()
    subprocess.run([sys.executable, "-m", "repro.cli", "run", "e1"],
                   stdout=subprocess.DEVNULL, check=True)
    print("repro.cli run e1: %.1f CPU-s" % (children_cpu() - before))


if __name__ == "__main__":
    main()
