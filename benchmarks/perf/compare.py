"""``--compare A.json B.json``: apply the bounds, row by row.

Each file holds one or more complete runs (``--out`` appends).  For
every workload and end-to-end metric the medians of the two sides are
compared against the metric's bound:

- ``ok``          B's median is not worse than A's by more than the bound;
- ``regression``  it is;
- ``unresolved``  the run-to-run spread (quartile distance over the
  median, the wider side) exceeds the bound, so the row cannot tell --
  unless every B run reads better than every A run.

Virtual metrics of same-seed, same-scale runs must be identical, and so
must their op counts when neither run was time-boxed.
"""

import json
import statistics

from benchmarks.perf.metrics import END_TO_END, WORKLOAD_NAMES

EXACT = ("virtual_ms_per_op", "virtual_p99_ms")
COUNTS = ("ops_attempted", "ops_ok")


def load(path):
    with open(path) as handle:
        return json.load(handle)["runs"]


def spread(values):
    """Quartile distance as a share of the median; None below 2 runs."""
    if len(values) < 2:
        return None
    low, _mid, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


def judge(before, after, better, bound):
    """(status, worsening, spread) for one metric on one workload."""
    base, new = statistics.median(before), statistics.median(after)
    sign = 1.0 if better == "lower" else -1.0
    if base:
        worse = sign * (new - base) / base
    else:
        worse = 0.0 if new == base else float("inf")
    spreads = [s for s in (spread(before), spread(after)) if s is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        if better == "lower":
            separated = max(after) < min(before)
        else:
            separated = min(after) > max(before)
        return ("ok" if separated else "unresolved"), worse, widest
    return ("regression" if worse > bound else "ok"), worse, widest


def mismatches(runs_a, runs_b):
    """Same-seed pairs whose deterministic numbers differ."""
    found = []
    for a in runs_a:
        for b in runs_b:
            if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
                continue
            names = EXACT
            if a["seconds"] is None and b["seconds"] is None:
                names += COUNTS
            for workload in WORKLOAD_NAMES:
                left = a["workloads"].get(workload)
                right = b["workloads"].get(workload)
                if left is None or right is None:
                    continue
                for name in names:
                    if left[name] != right[name]:
                        found.append((workload, name, left[name],
                                      right[name]))
    return found


def compare(path_a, path_b, out):
    """Print the table; returns the process exit code."""
    runs_a, runs_b = load(path_a), load(path_b)
    failed = False
    out("%-15s %-18s %12s %12s %8s %8s %7s  %s" % (
        "workload", "metric", "A median", "B median", "worse", "spread",
        "bound", "status",
    ))
    for workload in WORKLOAD_NAMES:
        for name, _unit, better, bound, _gated in END_TO_END:
            sides = [
                [run["workloads"][workload][name] for run in runs
                 if run["workloads"].get(workload, {}).get(name) is not None]
                for runs in (runs_a, runs_b)
            ]
            if not sides[0] or not sides[1]:
                continue
            status, worse, widest = judge(sides[0], sides[1], better, bound)
            failed |= status != "ok"
            out("%-15s %-18s %12.6g %12.6g %+7.1f%% %8s %6.0f%%  %s" % (
                workload, name, statistics.median(sides[0]),
                statistics.median(sides[1]), 100 * worse,
                "n/a" if widest is None else "%.1f%%" % (100 * widest),
                100 * bound, status,
            ))
    for workload, name, left, right in mismatches(runs_a, runs_b):
        failed = True
        out("%-15s %-18s same-seed runs differ: %r vs %r"
            % (workload, name, left, right))
    return 1 if failed else 0
