"""Two-clock, layer-attributed benchmark of the tenant request path.

Run it from the repository root::

    python3 -m benchmarks.perf                  # every workload, untraced
    python3 -m benchmarks.perf --traced         # plus per-layer numbers
    python3 -m benchmarks.perf --compare A.json B.json

``README.md`` beside this file describes the workloads, the metrics,
and how to read the traced output.  The package only drives public API
of ``repro``; all tracing lives here and is installed at run time.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
SRC = os.path.join(ROOT, "src")
