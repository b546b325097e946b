"""What the containment walk costs a publish on the host.

Builds ``publish_fanout``'s front door and database exactly as the
``benchmarks.perf`` workload does (seed 2018, 16 tenants, 4 000
subscriptions), then issues 1 400 publishes with
``ContainmentIndex.match`` -- the shard's walk over its forest -- wrapped,
and inside it whichever ``SimulatedMemory`` charge the walk calls
(``scan``, or the entry this tree has beside it).  It prints, per shard
match: the calls and the mean visits; microseconds per match and per
visit; the matches' share of the publishes' CPU and the charge's share
of the matches.

The hooks are installed by name on the classes, so the same file runs
unchanged in a parent checkout for a before/after
(``cd parent && PYTHONPATH=src python <repo>/tools/match_cost.py``).
Calls are timed on the wall clock of this single-threaded process; the
publishes' CPU is the sum of their ops' CPU seconds, as the benchmark
counts it.  Each wrapper costs about a microsecond, so shares read
slightly high for the matches and low for the rest.

Usage: ``PYTHONPATH=src python tools/match_cost.py [publishes]`` from
the root of the checkout to measure (``make match-cost``).
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.getcwd())  # benchmarks/ lives beside src/

from benchmarks.perf.workloads import PublishFanout  # noqa: E402
from repro.scbr.index import ContainmentIndex  # noqa: E402
from repro.sgx.memory import SimulatedMemory  # noqa: E402

SEED = 2018
PUBLISHES = 1400
# The charges a walk may call (``scan_keys`` is newer than ``scan``).
CHARGES = tuple(name for name in ("scan", "scan_keys")
                if hasattr(SimulatedMemory, name))


def install(book):
    """Wrap the walk and the charges; ``book`` accumulates calls,
    visits, the walk's seconds and the charges' seconds inside it.
    Returns the undo."""
    originals = [(ContainmentIndex, "match", ContainmentIndex.match)]
    originals += [(SimulatedMemory, name, getattr(SimulatedMemory, name))
                  for name in CHARGES]
    inside = [False]
    raw_match = originals[0][2]

    def match(self, publication):
        inside[0] = True
        start = perf_counter()
        try:
            return raw_match(self, publication)
        finally:
            book["match_s"] += perf_counter() - start
            inside[0] = False
            book["calls"] += 1
            book["visits"] += self.visits_last_match

    def wrap(raw):
        def charge(self, *args, **kwargs):
            if not inside[0]:
                return raw(self, *args, **kwargs)
            start = perf_counter()
            try:
                return raw(self, *args, **kwargs)
            finally:
                book["charge_s"] += perf_counter() - start

        return charge

    ContainmentIndex.match = match
    for owner, name, raw in originals[1:]:
        setattr(owner, name, wrap(raw))

    def uninstall():
        for owner, name, raw in originals:
            setattr(owner, name, raw)

    return uninstall


def main(argv):
    publishes = int(argv[0]) if argv else PUBLISHES
    workload = PublishFanout(SEED, 1.0)
    workload.setup()
    book = dict(calls=0, visits=0, match_s=0.0, charge_s=0.0)
    uninstall = install(book)
    cpu_s = 0.0
    for index in range(publishes):
        op = workload.publish(workload.tenants[index % workload.TENANTS])
        if not op.ok:
            raise SystemExit("publish %d failed" % index)
        cpu_s += op.cost.cpu_s
        workload.idle()
    uninstall()
    if not all(workload.checks.values()):
        raise SystemExit("checks failed: %r" % workload.checks)
    calls = book["calls"]
    if not calls:
        raise SystemExit("no ContainmentIndex.match ran")
    print("publish_fanout: %d publishes, %.3f CPU-ms per publish"
          % (publishes, 1e3 * cpu_s / publishes))
    print("shard matches: %d calls, %.1f visits per call"
          % (calls, book["visits"] / calls))
    print("ContainmentIndex.match: %.1f us per call, %.2f us per visit"
          % (1e6 * book["match_s"] / calls,
             1e6 * book["match_s"] / max(1, book["visits"])))
    print("matches %.1f %% of the publishes' CPU; the charge (%s) "
          "%.1f %% of the matches"
          % (100 * book["match_s"] / cpu_s, "/".join(CHARGES),
             100 * book["charge_s"] / book["match_s"]))


if __name__ == "__main__":
    main(sys.argv[1:])
