"""E2 -- Section V-B (in-text): cache misses vs. EPC paging.

"While cache misses imposes some limited overhead, they are less
critical than memory swapping.  Memory swapping is serviced by the
operating system, which causes higher overheads when compared to cache
misses."

Three working-set regimes over the same cyclic-scan workload:

- fits the LLC: enclave execution is essentially free;
- fits the EPC but not the LLC: every miss pays the MEE
  (decrypt + integrity + freshness) -- *limited* overhead;
- exceeds the EPC: the OS swaps encrypted pages -- much larger.
"""

import pytest

from repro.sgx.costs import DEFAULT_COSTS, MIB
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock

from benchmarks._harness import report

# One 64 B read per 256 B of working set: the touched-line footprint is
# ws/4, so the three regimes below fall either side of the 8 MB LLC and
# the ~93 MB usable EPC respectively.
STRIDE = 256
PASSES = 2

REGIMES = (
    ("fits LLC", 16 * MIB),            # hot lines: 4 MB < LLC
    ("fits EPC, misses LLC", 48 * MIB),  # hot lines: 12 MB > LLC; < EPC
    ("exceeds EPC (paging)", 120 * MIB),
)


def _per_access_cycles(working_set_bytes, enclave):
    costs = DEFAULT_COSTS
    clock = CycleClock()
    if enclave:
        memory = SimulatedMemory(clock, costs, enclave=True,
                                 epc=EpcModel(costs), name="ws")
    else:
        memory = SimulatedMemory(clock, costs, name="ws")
    region = memory.allocate(working_set_bytes)
    accesses = working_set_bytes // STRIDE

    def sweep():
        memory.scan(
            region.slice(index * STRIDE, 64) for index in range(accesses)
        )

    sweep()  # warm-up pass (cold faults excluded from the measurement)
    start = clock.now
    faults_before = memory.stats.page_faults
    for _ in range(PASSES):
        sweep()
    faults = memory.stats.page_faults - faults_before
    return (clock.now - start) / (PASSES * accesses), faults


def run_e2(smoke=False):
    # CI smoke: the LLC regime alone covers the measurement path.
    regimes = REGIMES[:1] if smoke else REGIMES
    rows = []
    for label, working_set in regimes:
        native, _ = _per_access_cycles(working_set, enclave=False)
        enclave, faults = _per_access_cycles(working_set, enclave=True)
        rows.append(
            (label, working_set // MIB, native, enclave, enclave / native,
             faults)
        )
    return rows


@pytest.fixture(scope="module")
def e2_rows():
    return run_e2()


def bench_e2_cache_vs_paging(e2_rows, benchmark):
    rows = e2_rows
    report(
        "e2_cache_vs_paging",
        "E2: per-access cost by working-set regime (cycles)",
        ("regime", "ws_mb", "native_cyc", "enclave_cyc", "overhead",
         "page_faults"),
        rows,
        notes=(
            "paper: cache misses impose limited overhead; OS-serviced EPC",
            "paging is far more expensive",
        ),
    )
    by_label = {row[0]: row for row in rows}
    llc_overhead = by_label["fits LLC"][4]
    mee_overhead = by_label["fits EPC, misses LLC"][4]
    paging_overhead = by_label["exceeds EPC (paging)"][4]
    assert llc_overhead == pytest.approx(1.0, abs=0.05)
    assert 2.0 < mee_overhead < 10.0, "MEE overhead is limited"
    assert paging_overhead > 3 * mee_overhead, "paging >> cache misses"
    assert by_label["fits EPC, misses LLC"][5] == 0, "no paging inside EPC"

    benchmark.pedantic(
        lambda: _per_access_cycles(16 * MIB, enclave=True),
        rounds=1, iterations=1,
    )
