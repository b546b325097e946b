"""One workload in one fresh interpreter; prints one JSON result.

``__main__.py`` starts this module as a child process per measurement,
so set-up time and peak RSS belong to the workload alone.  The single
argument is a JSON spec::

    {"workload": ..., "mode": "plain" | "telemetry" | "traced",
     "seed": ..., "scale": ..., "fraction": share of the nominal ops,
     "seconds": time box or null, "spawned": time.time() at spawn,
     "spans": path for the span dump or null}

Host time is taken on two clocks: wall (``perf_counter``) and the CPU
seconds of this whole process (``process_time``, every thread).  On a
shared virtual machine the hypervisor's stolen time inflates the first
and not the second, so the gated metrics use CPU seconds and the wall
numbers are printed beside them.

``plain`` runs with telemetry off (``NullRegistry``) and nothing
wrapped: the only mode end-to-end numbers come from.  ``telemetry``
enters ``repro.telemetry.enabled()``; ``traced`` also installs the
span wrappers and derives the per-layer metrics.
"""

import contextlib
import json
import resource
import statistics
import sys
import time
from time import perf_counter, process_time

from repro import telemetry

from benchmarks.perf import layers
from benchmarks.perf.metrics import percentile
from benchmarks.perf.tracing import Tracer
from benchmarks.perf.workloads import BY_NAME, clocks, since

PROBE_REQUESTS = 200


def shed_probe(workload):
    """Mean wall microseconds of a request that is shed and audited."""
    door = workload.door
    door.register_tenant("shed-probe", rate=1e-9, burst=0.5)
    start = perf_counter()
    outcomes = [
        door.upload_dataset("shed-probe", "probe", [b"probe"]).outcome
        for _ in range(PROBE_REQUESTS)
    ]
    elapsed = perf_counter() - start
    workload.check("shed_probe", set(outcomes) == {"shed"})
    return 1e6 * elapsed / PROBE_REQUESTS


def run(spec, boundaries=None):
    """Run the spec in this interpreter; returns the result dict."""
    mode = spec["mode"]
    seconds = spec["seconds"]
    with contextlib.ExitStack() as stack:
        registry = telemetry.NULL_REGISTRY
        tracer = None
        if mode != "plain":
            registry = stack.enter_context(telemetry.enabled())
        if mode == "traced":
            tracer = Tracer(boundaries)
            tracer.install()
            stack.callback(tracer.uninstall)
            run_begin = tracer.mark()

        workload = BY_NAME[spec["workload"]](spec["seed"], spec["scale"])
        workload.setup()
        for index in range(workload.warmup_ops):
            workload.step(index)
        if not spec["fraction"]:
            target = 0                    # set-up only
        elif seconds is None:
            target = max(1, round(workload.ops * spec["fraction"]))
        else:
            # Time-boxed: at least the virtual prefix, then the clock.
            target = workload.virtual_ops

        counts_before = workload.counters()
        telemetry_before = layers.flatten(registry.snapshot())
        begin = tracer.mark() if tracer else None
        # Set-up on both clocks: this process's CPU seconds since it
        # started, and wall seconds since the parent spawned it.
        setup_s = process_time()
        setup_wall_s = time.time() - spec["spawned"]
        walls, cpus, virtuals = [], [], []
        attempted = succeeded = 0
        check_wall_s = check_cpu_s = 0.0
        # Net CPU seconds after 1, 2, 3, ... ~1.25x more ops: per-op cost
        # grows as state accumulates, so two runs compare on a common
        # prefix of ops.
        progress, checkpoint = {}, 1
        peak_rss_kib = None
        start = clocks()
        while attempted < target or (
            seconds is not None and target
            and perf_counter() - start[0] < seconds
        ):
            op = workload.step(workload.warmup_ops + attempted)
            attempted += 1
            check_wall_s += op.check.wall_s
            check_cpu_s += op.check.cpu_s
            if op.ok:
                succeeded += 1
                walls.append(op.cost.wall_s)
                cpus.append(op.cost.cpu_s)
                if attempted <= target:
                    virtuals.append(op.virtual_ms)
            if attempted == checkpoint:
                progress[attempted] = (
                    process_time() - start[1] - check_cpu_s
                )
                checkpoint = max(checkpoint + 1, checkpoint * 5 // 4)
            if attempted == target:
                # Like the virtual metrics, the high-water mark is read
                # at the end of the fixed prefix, not of the time box.
                peak_rss_kib = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss
        elapsed = since(start)
        wall_s = elapsed.wall_s - check_wall_s
        cpu_s = elapsed.cpu_s - check_cpu_s
        end = tracer.mark() if tracer else None
        telemetry_after = layers.flatten(registry.snapshot())
        counts_after = workload.counters()

        shed_path_us = None
        if tracer and workload.door is not None:
            shed_path_us = shed_probe(workload)
        workload.finish()

        result = {
            "workload": workload.name, "mode": mode,
            "setup_s": setup_s, "setup_wall_s": setup_wall_s,
            "ops_attempted": attempted, "ops_ok": succeeded,
            "timed_wall_s": wall_s, "timed_cpu_s": cpu_s,
            "samples": len(walls),
            "progress": progress,
            "checks": workload.checks,
            "peak_rss_mb": peak_rss_kib and peak_rss_kib / 1024.0,
            "unresolved": tracer.unresolved if tracer else [],
        }
        if walls:
            result.update({
                "wall_ops_per_s": succeeded / wall_s,
                "wall_p50_ms": 1e3 * statistics.median(walls),
                "cpu_ops_per_s": succeeded / cpu_s,
                "cpu_p50_ms": 1e3 * statistics.median(cpus),
                # Percentiles need at least ten samples beyond them.
                "wall_p90_ms": 1e3 * percentile(walls, 0.90)
                if len(walls) >= 100 else None,
                "wall_p99_ms": 1e3 * percentile(walls, 0.99)
                if len(walls) >= 1000 else None,
                "virtual_ms_per_op": statistics.fmean(virtuals)
                if virtuals else None,
                "virtual_p99_ms": percentile(virtuals, 0.99)
                if len(virtuals) >= 1000 else None,
                "failed_share": (attempted - succeeded) / attempted,
            })
        if tracer and walls:
            timed, layer_self = tracer.window(begin, end, wall_s)
            whole, _ = tracer.window(run_begin, end, 0.0)
            per_layer = layers.derive(
                timed, layer_self, whole, wall_s,
                layers.difference(telemetry_after, telemetry_before),
                telemetry_after,
                layers.difference(counts_after, counts_before),
            )
            per_layer["service.shed_path_us"] = shed_path_us
            result["layers"] = per_layer
        if tracer and spec["spans"]:
            tracer.dump(spec["spans"])
    return result


if __name__ == "__main__":
    outcome = run(json.loads(sys.argv[1]))
    for name in outcome["unresolved"]:
        print("warning: boundary %s no longer resolves; its metrics "
              "are null" % name, file=sys.stderr)
    print(json.dumps(outcome))
