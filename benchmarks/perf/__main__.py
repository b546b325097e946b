"""Command line of the benchmark: run workloads, print metrics, compare.

Run as ``python3 -m benchmarks.perf`` from the repository root.  This
process stays small and imports nothing of ``repro``: every measurement
runs in a child interpreter (``worker.py``), one after another, so
``setup_s`` and ``peak_rss_mb`` belong to one workload alone.

With ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``BENCHMARK.json`` end-to-end metrics, or the per-layer metrics when
traced (a metric that does not apply to the workload reads 0 there;
the ``--out`` file keeps null).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from benchmarks.perf import ROOT, SRC
from benchmarks.perf.compare import compare
from benchmarks.perf.metrics import (
    END_TO_END, PACKAGES, PER_LAYER, WORKLOAD_NAMES,
)

DEFAULT_SEED = 2018
# Traced and telemetry-only runs use a quarter of the op count.
TRACED_FRACTION = 0.25
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
CALIBRATION_MIB = 64
COUNT_KEYS = ("ops_attempted", "ops_ok", "timed_wall_s", "timed_cpu_s",
              "samples", "wall_p99_ms")


def run_child(workload, mode, args, seconds, fraction, spans=None):
    """One measurement in a fresh interpreter; returns its result."""
    spec = {
        "workload": workload, "mode": mode, "seed": args.seed,
        "scale": args.scale, "fraction": fraction, "seconds": seconds,
        "spawned": time.time(), "spans": spans,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.worker", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(
            "%s (%s) failed with exit code %d"
            % (workload, mode, done.returncode)
        )
    return json.loads(done.stdout.splitlines()[-1])


def overhead_ratio(plain, other):
    """Plain over other wall seconds for the longest common op prefix."""
    common = max(set(plain["progress"]) & set(other["progress"]), key=int)
    return plain["progress"][common] / other["progress"][common]


def measure(workload, args):
    """All runs of one workload; returns its entry of the result file."""
    boxed_trace = args.traced and args.seconds is not None
    # A time-boxed traced run splits the box over its three children.
    seconds = args.seconds / 3 if boxed_trace else args.seconds
    plain = run_child(workload, "plain", args, seconds, 1.0)
    setups = [plain]
    if not boxed_trace:
        # Set-up time is the median over several fresh set-ups.
        setups += [
            run_child(workload, "plain", args, seconds, 0.0)
            for _ in range(SETUP_REPEATS - 1)
        ]
    entry = {name: plain.get(name) for name, *_rest in END_TO_END}
    for name in ("setup_s", "setup_wall_s"):
        entry[name] = statistics.median(run[name] for run in setups)
    entry.update({key: plain.get(key) for key in COUNT_KEYS})
    entry["checks"] = dict(plain["checks"])
    if args.traced:
        spans = None
        if args.out:
            spans = "%s.%s.spans.jsonl" % (
                os.path.splitext(os.path.abspath(args.out))[0], workload
            )
        metered = run_child(
            workload, "telemetry", args, seconds, TRACED_FRACTION
        )
        traced = run_child(
            workload, "traced", args, seconds, TRACED_FRACTION, spans
        )
        per_layer = traced["layers"]
        for name, run in (("telemetry", metered), ("trace", traced)):
            per_layer[name + ".overhead_ratio"] = overhead_ratio(plain, run)
            for check, passed in run["checks"].items():
                entry["checks"][check] = (
                    entry["checks"].get(check, True) and passed
                )
        entry["per_layer"] = per_layer
        entry["traced_wall_s"] = traced["timed_wall_s"]
        entry["unresolved"] = traced["unresolved"]
    return entry


def sha256_mb_per_s():
    """Host calibration: SHA-256 over 64 MiB, a block at a time."""
    block = bytes(1 << 20)
    digest = hashlib.sha256()
    start = time.perf_counter()
    for _ in range(CALIBRATION_MIB):
        digest.update(block)
    digest.digest()
    return CALIBRATION_MIB / (time.perf_counter() - start)


def source_lines():
    """Lines of Python per package under src/repro, and in all of it."""
    lines = dict.fromkeys(PACKAGES)
    total = 0
    base = os.path.join(SRC, "repro")
    for folder, _dirs, files in os.walk(base):
        package = os.path.relpath(folder, base).split(os.sep)[0]
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name), "rb") as handle:
                count = handle.read().count(b"\n")
            total += count
            if package in lines:
                lines[package] = (lines[package] or 0) + count
    out = {pkg + ".src_lines": count for pkg, count in lines.items()}
    out["repo.src_lines"] = total
    return out


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def print_entry(workload, entry):
    rows = [(name, unit, entry[name]) for name, unit, *_r in END_TO_END]
    rows += [(key, "", entry[key]) for key in COUNT_KEYS]
    rows += [(name, unit, entry["per_layer"].get(name))
             for name, unit, _b in PER_LAYER if "per_layer" in entry]
    for name, unit, value in rows:
        shown = "null" if value is None else "%.6g" % value
        print("%-15s %-34s %14s %s" % (workload, name, shown, unit))
    for check, passed in sorted(entry["checks"].items()):
        print("%-15s check:%-28s %14s" % (
            workload, check, "pass" if passed else "FAIL"
        ))


def contract_line(entry, traced):
    """The one-line result the benchmark driver reads."""
    if traced:
        metrics = {
            name: {"value": entry["per_layer"].get(name) or 0, "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": entry[name], "unit": unit}
            for name, unit, _better, _bound, gated in END_TO_END if gated
        }
    return json.dumps({
        "correct": all(entry["checks"].values()),
        "attempted": entry["ops_attempted"],
        "failed": entry["ops_attempted"] - entry["ops_ok"],
        "metrics": metrics,
    })


def parse(argv):
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.perf", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of every generated input")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies op counts and pre-load sizes")
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced per-layer run")
    parser.add_argument("--out", metavar="PATH",
                        help="append this run to a result file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="apply the bounds to two result files")
    # The benchmark driver's spelling: a time box per run, and --trace.
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box each run instead of counting ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 is --traced")
    args = parser.parse_args(argv)
    args.traced = args.traced or bool(args.trace)
    return args


def main(argv=None):
    args = parse(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1], print)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    run = {
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "python": platform.python_version(), "git_commit": git_commit(),
        "host.nproc": os.cpu_count(),
        "host.sha256_mb_per_s": sha256_mb_per_s(),
        "src_lines": source_lines(),
        "workloads": {},
    }
    for name in names:
        entry = run["workloads"][name] = measure(name, args)
        if "per_layer" in entry:
            entry["per_layer"].update(run["src_lines"])
            entry["per_layer"]["host.nproc"] = run["host.nproc"]
            entry["per_layer"]["host.sha256_mb_per_s"] = (
                run["host.sha256_mb_per_s"]
            )
        print_entry(name, entry)
    for key in ("host.sha256_mb_per_s", "host.nproc", "python", "seed",
                "scale", "git_commit"):
        print("%-15s %-34s %14s" % ("run", key, run[key]))
    if args.out:
        runs = []
        if os.path.exists(args.out):
            with open(args.out) as handle:
                runs = json.load(handle)["runs"]
        with open(args.out, "w") as handle:
            json.dump({"runs": runs + [run]}, handle, indent=1)
    correct = all(
        all(entry["checks"].values()) and entry["failed_share"] == 0.0
        for entry in run["workloads"].values()
    )
    if args.workload:
        print(contract_line(run["workloads"][args.workload], args.traced))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
