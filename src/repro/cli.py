"""Command-line experiment runner.

Regenerates any of the paper's tables/figures without going through
pytest (useful for quick iteration and for scripting sweeps):

    python -m repro.cli list
    python -m repro.cli run e1
    python -m repro.cli run all

Must be run from the repository root (the experiment definitions live
in the top-level ``benchmarks/`` package, next to ``src/``).
"""

import argparse
import importlib
import inspect
import sys
import time

EXPERIMENTS = {
    "e1": ("benchmarks.bench_fig3_memory_swapping", "run_figure3_sweep",
           "Figure 3: SCBR matching inside vs. outside the enclave"),
    "e2": ("benchmarks.bench_e2_cache_vs_paging", "run_e2",
           "cache misses vs. EPC paging"),
    "e3": ("benchmarks.bench_e3_genpack_energy", "run_e3",
           "GenPack energy savings"),
    "e4": ("benchmarks.bench_e4_orchestration_latency", "run_e4",
           "orchestration anomaly-detection latency"),
    "e5": ("benchmarks.bench_e5_chaos_recovery", "run_e5",
           "chaos recovery: detection-to-recovery latency and goodput"),
    "e6": ("benchmarks.bench_e6_shard_failover", "run_e6",
           "sharded-plane failover: detection, sealed recovery, coverage"),
    "e7": ("benchmarks.bench_e7_node_failover", "run_e7",
           "node fault domains: correlated detection, mass recovery, "
           "live migration"),
    "e8": ("benchmarks.bench_e8_attested_joins", "run_e8",
           "fleet-scale attestation: cached verification, batched "
           "enrollment, resumption tickets"),
    "e9": ("benchmarks.bench_e9_stream_churn", "run_e9",
           "secure streaming plane: backpressure, load-shedding, "
           "exactly-once windows under churn"),
    "e10": ("benchmarks.bench_e10_front_door", "run_e10",
            "multi-tenant front door: admission, quotas, sealed audit, "
            "tenant isolation"),
    "f1": ("benchmarks.bench_f1_event_bus", "run_f1",
           "Figure 1 architecture, executable"),
    "f2": ("benchmarks.bench_f2_secure_containers", "run_f2",
           "Figure 2 secure-container workflow"),
    "a1": ("benchmarks.bench_a1_index_vs_naive", "run_a1",
           "containment index vs. naive matcher"),
    "a2": ("benchmarks.bench_a2_async_syscalls", "run_a2",
           "sync vs. async syscalls"),
    "a3": ("benchmarks.bench_a3_fs_shield", "run_a3",
           "FS shield chunk-size trade-off"),
    "a4": ("benchmarks.bench_a4_mapreduce", "run_a4",
           "secure vs. plain map/reduce"),
    "a5": ("benchmarks.bench_a5_broker_network", "run_a5",
           "covering-based broker forwarding"),
    "a6": ("benchmarks.bench_a6_combiner", "run_a6",
           "map-side combining"),
    "a7": ("benchmarks.bench_a7_genpack_monitoring", "run_a7",
           "GenPack monitoring ablation + crash injection"),
    "a8": ("benchmarks.bench_a8_paging_avoidance", "run_a8",
           "future work: paging-avoiding hot/cold matcher"),
    "a9": ("benchmarks.bench_a9_crypto_dataplane", "run_a9",
           "crypto data-plane throughput (seed vs. fused vs. chunked)"),
    "a10": ("benchmarks.bench_a10_sharded_matching", "run_a10",
            "sharded matching plane publish fan-out"),
}

# Performance gate (``python -m repro.cli gate`` / ``make bench-gate``).
# Each entry: experiment id -> (baseline artifact name, header attribute
# on the benchmark module, gated column names).  Columns are looked up
# by *name* in the header -- the module's for fresh rows, the stored one
# for baseline rows -- so a reordered table cannot silently gate the
# wrong column.  Gated experiments run in smoke mode -- the virtual
# cycle model is deterministic, so smoke rows are stable across runs --
# and every gated column is compared per labelled row against the
# checked-in baseline under benchmarks/out/.  The baselines are separate
# files from the full benchmark artifacts so a full ``make bench`` never
# overwrites them; only ``gate --update`` does.
GATE_SPECS = {
    "a1": ("gate_a1", "A1_HEADER", ("visits/match", "virtual_ms/match")),
    "a9": ("gate_a9", "A9_HEADER", ("virtual_ms/MB",)),
    "a10": ("gate_a10", "A10_HEADER", ("virtual_ms/pub",)),
    "e6": ("gate_e6", "E6_HEADER", ("recover_ms_med", "silent_loss")),
    "e7": ("gate_e7", "E7_HEADER",
           ("detect_ms_med", "recover_ms_med", "silent_loss")),
    "e8": ("gate_e8", "E8_HEADER",
           ("ms_per_join", "recover_ms_med", "silent_loss")),
    "e9": ("gate_e9", "E9_HEADER",
           ("shed", "p99_lag_vsec", "recover_ms_med", "silent_loss")),
    "e10": ("gate_e10", "E10_HEADER",
            ("p99_ms", "victim_ratio", "silent_loss")),
}
GATE_TOLERANCE = 0.10


def _gate_columns(header, metrics, where):
    """Column index of every gated metric name in ``header``."""
    header = list(header)
    missing = [name for name in metrics if name not in header]
    if missing:
        raise SystemExit(
            "gate: %s has no column named %s (columns: %s)"
            % (where, ", ".join(map(repr, missing)), ", ".join(header))
        )
    return {name: header.index(name) for name in metrics}


def _load(experiment_id):
    module_name, function_name, _description = EXPERIMENTS[experiment_id]
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SystemExit(
            "could not import %s (%s); run from the repository root so "
            "the benchmarks/ package is importable" % (module_name, exc)
        )
    return module, getattr(module, function_name)


def _render(experiment_id, result, module=None):
    from benchmarks._harness import format_table

    title = "%s -- %s" % (
        experiment_id.upper(), EXPERIMENTS[experiment_id][2]
    )
    if isinstance(result, list) and result and isinstance(result[0], tuple):
        # Benchmarks that export <ID>_HEADER get real column names.
        header = getattr(
            module, "%s_HEADER" % experiment_id.upper(), None
        )
        if header is None or len(header) != len(result[0]):
            header = tuple("col%d" % i for i in range(len(result[0])))
        print(format_table(title, tuple(header), result))
        return
    print(title)
    if isinstance(result, dict):
        for key, value in result.items():
            print("  %-24s %s" % (key, value))
    elif isinstance(result, tuple):
        for part in result:
            if isinstance(part, dict):
                for key, value in part.items():
                    print("  %-32s %s" % (key, value))
            else:
                print("  %s" % (part,))
    else:
        print("  %r" % (result,))


def run_experiment(experiment_id, smoke=False):
    """Execute one experiment and print its rows.

    With ``smoke=True``, experiments whose runner accepts a ``smoke``
    keyword run their reduced workload; the rest run as-is.
    """
    module, function = _load(experiment_id)
    if smoke and "smoke" in inspect.signature(function).parameters:
        result = function(smoke=True)
    else:
        result = function()
    _render(experiment_id, result, module)
    return result


def run_smoke():
    """Run every experiment once, fast where supported (CI smoke mode).

    Any raised exception fails the smoke run, so a regression in any
    benchmark path is caught without waiting for the full suite.
    """
    for experiment_id in sorted(EXPERIMENTS):
        start = time.perf_counter()
        run_experiment(experiment_id, smoke=True)
        print(
            "smoke %s ok (%.1fs)"
            % (experiment_id, time.perf_counter() - start)
        )
    return 0


def run_chaos_check():
    """Determinism gate for the chaos layer (``smoke --chaos``).

    Runs the E5 chaos-recovery, E6 sharded-plane failover, E7
    node-failover, E8 attested-join, E9 streaming-churn, and E10
    front-door scenarios twice each with the
    same seed and fails unless both passes produce identical rows -- seeded fault injection (and
    the fault log / delivery set it produces) must be reproducible or
    every chaos test is flaky by construction.  Each pass runs under a
    fresh metrics registry and the canonical snapshots must also be
    byte-identical: the telemetry plane may not observe anything the
    seed does not determine.
    """
    from repro import telemetry

    start = time.perf_counter()
    total = 0
    for experiment_id in ("e5", "e6", "e7", "e8", "e9", "e10"):
        _module, function = _load(experiment_id)
        with telemetry.enabled() as first_registry:
            first = function(smoke=True)
        with telemetry.enabled() as second_registry:
            second = function(smoke=True)
        if first != second:
            print(
                "chaos determinism FAILED: two same-seed %s runs diverged"
                % experiment_id
            )
            for row_a, row_b in zip(first, second):
                marker = "  " if row_a == row_b else "!="
                print("%s %r | %r" % (marker, row_a, row_b))
            return 1
        if first_registry.to_json() != second_registry.to_json():
            print(
                "chaos determinism FAILED: two same-seed %s runs produced "
                "different metric snapshots" % experiment_id
            )
            snap_a = first_registry.snapshot()
            snap_b = second_registry.snapshot()
            for section in sorted(set(snap_a) | set(snap_b)):
                values_a = snap_a.get(section, {})
                values_b = snap_b.get(section, {})
                for name in sorted(set(values_a) | set(values_b)):
                    if values_a.get(name) != values_b.get(name):
                        print("!= %s %s: %r | %r" % (
                            section, name,
                            values_a.get(name), values_b.get(name),
                        ))
            return 1
        _render(experiment_id, first)
        total += len(first)
    print(
        "chaos determinism ok: %d scenarios identical across two runs, "
        "metric snapshots byte-identical (%.1fs)"
        % (total, time.perf_counter() - start)
    )
    return 0


def run_metrics(experiment_id):
    """Run one experiment with telemetry enabled and dump the snapshot.

    The experiment runs in smoke mode (where supported) under a fresh
    live registry; the canonical metric snapshot is printed as JSON and
    -- because the benchmark harness sees the live registry -- a
    ``benchmarks/out/<id>.telemetry.json`` sidecar is written next to
    the usual table artifacts.
    """
    import json

    from repro import telemetry
    from benchmarks import _harness

    module, function = _load(experiment_id)
    with telemetry.enabled() as registry:
        if "smoke" in inspect.signature(function).parameters:
            function(smoke=True)
        else:
            function()
        # Most benchmarks report() from their pytest wrapper, so write
        # the sidecar here under the module's artifact name.
        artifact = module.__name__.rpartition(".")[2]
        if artifact.startswith("bench_"):
            artifact = artifact[len("bench_"):]
        path = _harness.write_telemetry_sidecar(artifact, registry)
    print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    if path:
        print("telemetry sidecar written: %s" % path, file=sys.stderr)
    return 0


def _traced_publish(seed=66, shards=3, subscriptions=24, publications=4):
    """Drive a telemetry-enabled sharded plane through a short stream.

    Returns ``(router, operator_key, tracer)`` after the last
    publication: the host-side tracer holds the driver's plaintext
    spans, and every enclave holds sealed spans exportable only under
    ``operator_key``.
    """
    from repro.crypto.aead import AeadKey
    from repro.scbr.filters import Publication, Subscription
    from repro.scbr.messages import EncryptedEnvelope, serialize_publication
    from repro.scbr.router import ScbrClient
    from repro.scbr.sharding import ShardedScbrRouter
    from repro.scbr.workload import ScbrWorkload
    from repro.sgx.attestation import AttestationService
    from repro.sgx.platform import SgxPlatform
    from repro.telemetry import SpanRecorder

    operator_key = AeadKey.generate()
    tracer = SpanRecorder("driver")
    platform = SgxPlatform(seed=seed, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = ShardedScbrRouter(
        platform,
        lambda i: SgxPlatform(seed=100 * seed + i, quoting_key_bits=512),
        attestation_service=attestation,
        shards=shards,
        telemetry_key=operator_key,
        tracer=tracer,
    )
    attestation.trust_measurement(router.measurement)
    alice = ScbrClient("alice", router, attestation)
    workload = ScbrWorkload(seed=seed, num_attributes=6,
                            containment_fraction=0.5, num_subscribers=1)
    for subscription in workload.subscriptions(subscriptions):
        alice.subscribe(Subscription(
            subscription.subscription_id,
            list(subscription.constraints.values()),
            "alice",
        ))
    publisher = ScbrClient("publisher", router, attestation)
    for publication in workload.publications(publications):
        envelope = EncryptedEnvelope.seal(
            publisher.key, publisher.client_id, "publish",
            serialize_publication(Publication(publication.attributes)),
        )
        router.publish(envelope)
    return router, operator_key, tracer


def run_trace(seed=66):
    """Reconstruct an end-to-end publish flame view across enclaves.

    Publishes through a telemetry-enabled sharded plane, opens each
    enclave's sealed snapshot with the operator key, joins in-enclave
    spans with the driver's spans into one tree, and renders the last
    publication's publish->match->notify flame view.  Fails unless the
    root span's duration equals the plane's benchmark-reported publish
    latency (``last_publish_cycles``) within the publish histogram's
    bucket resolution at that value.
    """
    from repro import telemetry

    with telemetry.enabled() as registry:
        router, operator_key, tracer = _traced_publish(seed=seed)
        sealed = router.export_telemetry()

    spans = list(tracer.spans)
    for origin, blob in sealed:
        payload = telemetry.open_snapshot(operator_key, blob)
        enclave_spans = telemetry.spans_from_snapshot(payload)
        spans.extend(enclave_spans)
        counters = payload.get("metrics", {}).get("counters", {})
        print("sealed snapshot %-8s %d spans  %s" % (
            origin, len(enclave_spans),
            "  ".join("%s=%s" % (name, counters[name])
                      for name in sorted(counters)),
        ))

    roots = [span for span in tracer.spans if span.name == "scbr.publish"]
    if not roots:
        print("trace FAILED: no publish root span recorded")
        return 1
    root = roots[-1]
    tree = telemetry.build_span_tree(spans, trace_id=root.trace_id)
    print()
    print(telemetry.render_flame(tree))

    histogram = registry.histogram(
        "scbr.publish_cycles", buckets=telemetry.DEFAULT_CYCLE_BUCKETS
    )
    tolerance = histogram.resolution(router.last_publish_cycles)
    delta = abs(root.duration - router.last_publish_cycles)
    if delta > tolerance:
        print(
            "trace FAILED: root span %.0f cycles vs. benchmark latency "
            "%.0f cycles (delta %.0f > bucket resolution %.4g)"
            % (root.duration, router.last_publish_cycles, delta, tolerance)
        )
        return 1
    print(
        "trace ok: root span %.0f cycles == benchmark publish latency "
        "%.0f cycles (bucket resolution %.4g)"
        % (root.duration, router.last_publish_cycles, tolerance)
    )
    return 0


def run_gate(update=False):
    """Fail if a gated metric regressed >10% against its baseline.

    Runs every gated experiment in smoke mode,
    compares the gated columns row-by-row against
    ``benchmarks/out/gate_<id>.json``, and prints ONE aggregated
    summary table across all baselines with a single pass/fail exit
    code -- CI reads one verdict, not five.
    With ``update=True`` the fresh rows replace the baselines instead.
    """
    import json
    import os

    from benchmarks import _harness

    summary = []     # (gate, row, metric, baseline, fresh, delta, status)
    failures = 0
    for experiment_id in sorted(GATE_SPECS):
        baseline_name, header_attribute, metrics = GATE_SPECS[experiment_id]
        module, function = _load(experiment_id)
        header = getattr(module, header_attribute)
        columns = _gate_columns(header, metrics, header_attribute)
        rows = function(smoke=True)
        if update:
            _harness.report(
                baseline_name,
                "Performance gate baseline: %s (smoke mode)"
                % experiment_id.upper(),
                header,
                rows,
                notes=(
                    "regenerate with: python -m repro.cli gate --update",
                    "compared columns: %s" % ", ".join(metrics),
                ),
            )
            continue
        path = os.path.join(_harness._OUT_DIR, baseline_name + ".json")
        if not os.path.exists(path):
            print(
                "gate: missing baseline %s -- run "
                "'python -m repro.cli gate --update' and commit it" % path
            )
            return 1
        with open(path, "r", encoding="utf-8") as handle:
            stored = json.load(handle)
        baseline_columns = _gate_columns(stored["header"], metrics, path)
        baseline_rows = {row[0]: row for row in stored["rows"]}
        for row in rows:
            label = row[0]
            baseline = baseline_rows.get(label)
            if baseline is None:
                failures += 1
                summary.append((
                    experiment_id, label, "-", "missing", "-", "-",
                    "FAIL (gate --update needed?)",
                ))
                continue
            for metric in metrics:
                fresh = float(row[columns[metric]])
                old = float(baseline[baseline_columns[metric]])
                delta = (fresh / old - 1.0) * 100.0 if old else 0.0
                regressed = fresh > old * (1.0 + GATE_TOLERANCE)
                if regressed:
                    failures += 1
                summary.append((
                    experiment_id, label, metric,
                    "%.4g" % old, "%.4g" % fresh,
                    "%+.1f%%" % delta,
                    "FAIL" if regressed else "ok",
                ))
    if update:
        print("gate baselines updated under benchmarks/out/")
        return 0
    print(_harness.format_table(
        "Performance gate: %d baselines, tolerance +%.0f%%"
        % (len(GATE_SPECS), GATE_TOLERANCE * 100.0),
        ("gate", "row", "metric", "baseline", "fresh", "delta", "status"),
        summary,
    ))
    if failures:
        print("performance gate FAILED: %d regression(s)" % failures)
        return 1
    print("performance gate passed (%d metrics, tolerance +%.0f%%)"
          % (len(summary), GATE_TOLERANCE * 100.0))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate SecureCloud reproduction experiments",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list experiment ids")
    runner = commands.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    smoke = commands.add_parser(
        "smoke", help="run every experiment in fast smoke mode (CI)"
    )
    smoke.add_argument(
        "--chaos", action="store_true",
        help="additionally verify seeded chaos runs are deterministic",
    )
    gate = commands.add_parser(
        "gate", help="fail on >10%% regression vs. checked-in baselines"
    )
    gate.add_argument(
        "--update", action="store_true",
        help="regenerate the gate baselines instead of comparing",
    )
    metrics = commands.add_parser(
        "metrics", help="run one experiment with telemetry on, dump snapshot"
    )
    metrics.add_argument("experiment", choices=sorted(EXPERIMENTS))
    trace = commands.add_parser(
        "trace",
        help="reconstruct a cross-enclave publish flame view from sealed "
             "telemetry",
    )
    trace.add_argument(
        "--seed", type=int, default=66, help="workload seed (default 66)"
    )
    arguments = parser.parse_args(argv)

    if arguments.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print("%-4s %s" % (experiment_id, EXPERIMENTS[experiment_id][2]))
        return 0
    if arguments.command == "smoke":
        status = run_smoke()
        if status == 0 and arguments.chaos:
            status = run_chaos_check()
        return status
    if arguments.command == "gate":
        return run_gate(update=arguments.update)
    if arguments.command == "metrics":
        return run_metrics(arguments.experiment)
    if arguments.command == "trace":
        return run_trace(seed=arguments.seed)
    targets = (
        sorted(EXPERIMENTS)
        if arguments.experiment == "all"
        else [arguments.experiment]
    )
    for experiment_id in targets:
        run_experiment(experiment_id)
    return 0


if __name__ == "__main__":
    sys.exit(main())
