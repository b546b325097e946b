"""A flat table that is one run is charged through ``scan_strided``.

``LinearIndex`` hands its memory one strided range when its records lie
back to back in insertion order, and falls back to ``scan`` over the
region column when they do not.  Both paths must charge the same: each
case here drives the index and a twin that always takes ``scan`` through
the same steps on identical memories, and compares match sets, visits,
counters, clocks and LRU contents.  The path itself is pinned by making
the other entry point raise, so a refactor cannot lose the fast path (or
take it where it is wrong) without failing here.
"""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock

# A 96-record table fits this LLC (its lines hit from the second match
# on) and is over twice this EPC (its pages fault on every match).
COSTS = DEFAULT_COSTS.scaled(
    llc_capacity=128 * DEFAULT_COSTS.line_size,
    epc_capacity=5 * DEFAULT_COSTS.page_size, epc_metadata_fraction=0.0,
)
RECORDS = 96


class ScanOnly(LinearIndex):
    """The twin: never a run, so every match goes through ``scan``."""

    one_run = False


def memory(enclave):
    return SimulatedMemory(
        CycleClock(), COSTS, enclave=enclave,
        epc=EpcModel(COSTS) if enclave else None, name="table",
    )


def observe(index):
    memory = index.memory
    return (
        memory.clock.now, memory.stats, memory.llc.keys(),
        memory.epc.resident_page_keys() if memory.enclave else None,
        index.visits_last_match,
    )


def middle_removed(index, subscriptions):
    index.remove(subscriptions[RECORDS // 2].subscription_id)


def front_extracted(index, _subscriptions):
    index.extract_subtrees(5 * index.record_bytes)


def last_removed(index, subscriptions):
    index.remove(subscriptions[-1].subscription_id)


def build(index_cls, enclave, record_bytes, foreign_allocation):
    workload = ScbrWorkload(seed=26, num_attributes=6)
    subscriptions = workload.subscriptions(RECORDS)
    index = index_cls(memory=memory(enclave), record_bytes=record_bytes)
    for position, subscription in enumerate(subscriptions):
        index.insert(subscription)
        if foreign_allocation and position == RECORDS // 3:
            index.memory.allocate(100, label="foreign")
    return index, subscriptions, workload.publications(4)


def refuse(name):
    def refused(*_args, **_kwargs):
        raise AssertionError("%s must not be called here" % name)
    return refused


@pytest.mark.parametrize("enclave", [True, False])
@pytest.mark.parametrize(
    "step, foreign_allocation, one_run",
    [
        (None, False, True),
        (front_extracted, False, True),
        (last_removed, False, True),
        (middle_removed, False, False),
        (None, True, False),
    ],
    ids=["contiguous", "front-extracted", "last-removed", "middle-removed",
         "foreign-allocation"],
)
def test_either_path_charges_what_scan_charges(
    monkeypatch, enclave, step, foreign_allocation, one_run
):
    index, subscriptions, publications = build(
        LinearIndex, enclave, 512, foreign_allocation
    )
    twin, _, _ = build(ScanOnly, enclave, 512, foreign_allocation)
    for table in (index, twin):
        table.match(publications[0])
        if step is not None:
            step(table, subscriptions)
    assert index.one_run is one_run
    # The path not taken raises, and the strided call of a run must
    # not reach ``scan`` either (512-byte records divide the page).
    refused = "scan" if one_run else "scan_strided"
    monkeypatch.setattr(index.memory, refused, refuse(refused))
    for publication in publications:
        assert index.match(publication) == twin.match(publication)
        assert observe(index) == observe(twin)


def test_a_record_that_does_not_divide_the_page_still_charges_the_same():
    # 9 lines per record: a run, but scan_strided hands it to scan.
    index, _, publications = build(LinearIndex, True, 576, False)
    twin, _, _ = build(ScanOnly, True, 576, False)
    assert index.one_run
    for publication in publications:
        assert index.match(publication) == twin.match(publication)
        assert observe(index) == observe(twin)


def test_an_empty_or_released_table():
    index = LinearIndex(memory=memory(True))
    assert not index.one_run
    assert index.match(None) == set()
    index.insert(ScbrWorkload(seed=3).subscriptions(1)[0])
    index.memory.release_all()
    with pytest.raises(CapacityError):
        index.match(None)


def test_record_geometry_validated():
    with pytest.raises(ConfigurationError):
        LinearIndex(record_bytes=32, hot_bytes=64)
