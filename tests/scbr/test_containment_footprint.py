"""A forest node stays within the host footprint of the one it replaced.

A ``ContainmentIndex`` node keeps what a visit reads -- its flat
predicate and its record's line and page keys -- beside its base
address.  The node it replaced, with a ``MemoryRegion`` per record and
an entry in a parent dict, measured 3.00 GC-tracked objects and 279 B
per node.  Here a 20 000-node forest of the ``publish_fanout``
benchmark's subscriptions (``load > x``, ``volt < y``, ``feeder ==
z``), built from a pool made before anything is counted, may add at
most 3 GC-tracked objects and 360 B of traced host memory per node,
once on an enclave memory and once without one.  The node, its
predicate tuple and (for an inner node) its child list are the
objects; a leaf shares the empty ``()`` and consecutive records share
their page's key.
"""

import gc
import random
import tracemalloc

import pytest

from repro.scbr.filters import Constraint, Operator, Subscription
from repro.scbr.index import ContainmentIndex
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock

NODES = 20_000


def fanout_subscriptions(count, seed=5):
    rng = random.Random(seed)
    return [
        Subscription("sub-%d" % number, [
            Constraint("load", Operator.GT, rng.randrange(100)),
            Constraint("volt", Operator.LT, rng.randrange(200, 260)),
            Constraint("feeder", Operator.EQ, rng.randrange(16)),
        ])
        for number in range(count)
    ]


@pytest.mark.parametrize("enclave", [True, False],
                         ids=["enclave-memory", "no-memory"])
def test_a_node_adds_at_most_3_objects_and_360_bytes(enclave):
    pool = fanout_subscriptions(NODES)
    memory = None
    if enclave:
        memory = SimulatedMemory(CycleClock(), DEFAULT_COSTS, enclave=True,
                                 epc=EpcModel(DEFAULT_COSTS), name="forest")
    index = ContainmentIndex(memory=memory)
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for subscription in pool:
            index.insert(subscription)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    gc.collect()
    added = len(gc.get_objects()) - objects
    assert added <= 3 * NODES, "%.2f objects per node" % (added / NODES)
    assert grown <= 360 * NODES, "%.1f B per node" % (grown / NODES)
    assert len(index) == NODES
