"""A flat-table row holds a subscription reference and an address: no
object of its own, and a few machine words of host memory.

The Figure-3 table is 196 608 rows cycled from a pool of subscription
objects.  Each row used to keep a tuple and a labelled ``MemoryRegion``
alive: two objects the cyclic GC re-walks on every collection, and
~232 B.  Here a 20 000-row table is built the same way, from a pool
made before anything is counted, once on an enclave memory and once
without one; the build may add fewer than 100 GC-tracked objects in
all (the filing of distinct objects by attribute adds a few) and at most 64 B of
traced host memory per row.
"""

import gc
import tracemalloc

import pytest

from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock

ROWS = 20_000
POOL = 500


@pytest.mark.parametrize("enclave", [True, False],
                         ids=["enclave-memory", "no-memory"])
def test_a_row_adds_no_object_and_at_most_64_bytes(enclave):
    pool = ScbrWorkload(seed=30, num_attributes=20).subscriptions(POOL)
    memory = None
    if enclave:
        memory = SimulatedMemory(CycleClock(), DEFAULT_COSTS, enclave=True,
                                 epc=EpcModel(DEFAULT_COSTS), name="table")
    index = LinearIndex(memory=memory, record_bytes=512)
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for position in range(ROWS):
            index.insert(pool[position % POOL])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    gc.collect()
    assert len(gc.get_objects()) - objects < 100
    assert grown <= 64 * ROWS, "%.1f B per row" % (grown / ROWS)
    assert len(index) == ROWS
