"""Metric and workload tables: the names ``BENCHMARK.json`` mirrors.

This module is the single place a metric's name, unit, direction and
bound are written down; ``test_perf_smoke.py`` asserts that
``BENCHMARK.json`` says the same.
"""

LAYERS = ("service", "sgx", "crypto", "scbr", "bigdata", "streams",
          "cluster", "sim")

# Every package directory under src/repro today.  The list is fixed so
# that the metric list is: a package that disappears reads null, a new
# one needs a row here and in BENCHMARK.json.
PACKAGES = ("bigdata", "chaos", "cluster", "containers", "core", "crypto",
            "genpack", "microservices", "scbr", "scone", "service", "sgx",
            "sim", "smartgrid", "streams", "telemetry")

# (name, why).  Nominal op counts and pre-load sizes live beside each
# workload class in workloads.py.
WORKLOADS = (
    ("upload_open",
     "1 MiB dataset upload then open, compared byte for byte: bulk "
     "crypto does the work, every other plane is idle"),
    ("tenant_mix",
     "4 tenants, small requests across every plane: per-request fixed "
     "cost (admission, quota, gateway ecall, audit append) dominates"),
    ("publish_fanout",
     "16 tenants publishing into 4000 subscriptions: scbr matching, "
     "shard ecalls and notification sealing dominate"),
    ("epc_paging",
     "96 MiB LinearIndex match in enclave memory beyond the usable "
     "EPC, no door: the Figure-3 mechanism and the simulator's speed"),
    ("bringup_churn",
     "cold full-stack bring-up per op: RSA keygen, DH, attestation, "
     "provisioning, enclave load; steady-state paths are idle"),
)
WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)

# (name, unit, better, bound, gated).  Gated rows are BENCHMARK.json's
# end_to_end list.  They are the ones that hold still on a shared
# virtual machine: host time in CPU seconds of the workload's process
# (stolen time inflates wall seconds, not these), the virtual clock,
# and memory.  The rest are printed and compared by --compare but kept
# out of the contract: wall-clock rows because a noisy neighbour moves
# them by more than any bound, the percentiles because they are null
# below 100 and 1000 samples, failed_share because it is 0 by design.
# virtual_* are virtual milliseconds of the SGX cost model ("vms"), not
# host time: they repeat exactly for a seed, and their bound only has
# to cover seed-to-seed variation.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, True),
    ("cpu_ops_per_s", "ops/s", "higher", 0.25, True),
    ("cpu_p50_ms", "ms", "lower", 0.25, True),
    ("virtual_ms_per_op", "vms", "lower", 0.03, True),
    ("peak_rss_mb", "MiB", "lower", 0.10, True),
    ("setup_wall_s", "s", "lower", 0.25, False),
    ("wall_ops_per_s", "ops/s", "higher", 0.25, False),
    ("wall_p50_ms", "ms", "lower", 0.25, False),
    ("wall_p90_ms", "ms", "lower", 0.25, False),
    ("virtual_p99_ms", "vms", "lower", 0.03, False),
    ("failed_share", "ratio", "lower", 0.0, False),
)


def _per_layer():
    rows = []
    for layer in LAYERS:
        rows += [
            (layer + ".calls", "count", "lower"),
            (layer + ".self_s", "s", "lower"),
            (layer + ".self_share", "ratio", "lower"),
        ]
    rows += [
        ("harness.self_s", "s", "lower"),
        ("harness.self_share", "ratio", "lower"),
        ("service.upload_p50_ms", "ms", "lower"),
        ("service.open_p50_ms", "ms", "lower"),
        ("service.job_p50_ms", "ms", "lower"),
        ("service.subscribe_p50_ms", "ms", "lower"),
        ("service.publish_p50_ms", "ms", "lower"),
        ("service.stream_round_p50_ms", "ms", "lower"),
        ("service.audit_entries", "count", "lower"),
        ("service.admit_us", "us", "lower"),
        ("service.shed_path_us", "us", "lower"),
        ("sgx.ecalls", "count", "lower"),
        ("sgx.ecall_self_us", "us", "lower"),
        ("sgx.quotes", "count", "lower"),
        ("sgx.enclave_loads", "count", "lower"),
        ("sgx.mem_accesses", "count", "lower"),
        ("sgx.mem_access_ns", "ns", "lower"),
        ("sgx.mem_accesses_per_s", "1/s", "higher"),
        ("sgx.epc_faults", "count", "lower"),
        ("sgx.cycles_per_access", "cycles", "lower"),
        ("crypto.seal_mb", "MiB", "lower"),
        ("crypto.open_mb", "MiB", "lower"),
        ("crypto.seal_mb_per_s", "MiB/s", "higher"),
        ("crypto.open_mb_per_s", "MiB/s", "higher"),
        ("crypto.record_seals", "count", "lower"),
        ("crypto.record_seal_us", "us", "lower"),
        ("crypto.keygen_calls", "count", "lower"),
        ("crypto.keygen_s", "s", "lower"),
        ("crypto.dh_s", "s", "lower"),
        ("crypto.sign_verify_s", "s", "lower"),
        ("crypto.chunked_passes", "count", "lower"),
        ("scbr.publishes", "count", "lower"),
        ("scbr.match_calls", "count", "lower"),
        ("scbr.match_us", "us", "lower"),
        ("scbr.insert_us", "us", "lower"),
        ("scbr.visits_per_match", "count", "lower"),
        ("scbr.notifications_per_publish", "count", "lower"),
        ("scbr.quote_cache_hit_share", "ratio", "higher"),
        ("bigdata.jobs", "count", "lower"),
        ("bigdata.job_ms", "ms", "lower"),
        ("bigdata.map_tasks", "count", "lower"),
        ("bigdata.sealed_mb_moved", "MiB", "lower"),
        ("streams.pumps", "count", "lower"),
        ("streams.pump_ms", "ms", "lower"),
        ("streams.records", "count", "lower"),
        ("streams.committed_firings", "count", "lower"),
        ("cluster.topology_build_ms", "ms", "lower"),
        ("sim.env_run_us", "us", "lower"),
        ("telemetry.overhead_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "higher"),
        ("host.sha256_mb_per_s", "MiB/s", "higher"),
        ("host.nproc", "count", "higher"),
    ]
    rows += [(pkg + ".src_lines", "lines", "lower") for pkg in PACKAGES]
    rows.append(("repo.src_lines", "lines", "lower"))
    return tuple(rows)


PER_LAYER = _per_layer()


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
