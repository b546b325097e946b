"""Every entry point the host-clock benchmark's tracer wraps resolves.

``benchmarks/perf/tracing.BOUNDARIES`` names the traced entry points by
dotted path.  A refactor that renames or deletes one leaves the
tracer's rows for it reading null, which otherwise only ``make
perf-smoke`` would notice.
"""

from benchmarks.perf import tracing

# Deleted with the provisioning rework; the benchmark's own table still
# names it, and repointing that row is ROADMAP item 0b'.
STALE = {"repro.scbr.provisioning.CachedAttestationVerifier.verify"}


def test_every_boundary_but_the_known_stale_one_resolves():
    unresolved = set()
    for _layer, name, _kind, _amount in tracing.BOUNDARIES:
        try:
            tracing.resolve(name)
        except (ImportError, AttributeError):
            unresolved.add(name)
    assert unresolved == STALE
