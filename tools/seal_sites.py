"""Which seal sites a benchmark workload's CPU goes to.

Builds the named ``benchmarks.perf`` workload with its seeded inputs
(seed 2018, scale 1, a default ``SecureFrontDoor``), runs the set-up
and the warm-up untimed, then a fixed prefix of ops with the four
boundary methods -- ``AeadKey.seal`` / ``open`` / ``seal_records`` /
``open_records`` -- wrapped.  Each call is attributed to the first
frame outside ``crypto/aead.py``, ``scbr/messages.py`` and
``sgx/sealing.py`` (the layers that seal on a caller's behalf) and the
table prints, per site and largest first: calls per op, mean payload
bytes, microseconds per call and the site's share of the ops' CPU.  The
last line is the HMAC-CTR ``keystream`` share (the single-payload
framing's cipher; ``seal_records`` squeezes SHAKE-256 instead) -- the
number ROADMAP item 7c is sized from (DESIGN section 10, "Which framing
when").

Calls are timed on the wall clock of this single-threaded process and
divided by the ops' CPU seconds; the wrappers cost about a microsecond
a call inside those, so shares read slightly low.  Run the same file
in a parent checkout for a before/after
(``cd parent && PYTHONPATH=src python <repo>/tools/seal_sites.py W``).

Usage: ``PYTHONPATH=src python tools/seal_sites.py <workload> [ops]``
from the root of the checkout to measure (``make seal-sites W=...``).
"""

import os
import sys
from time import perf_counter

sys.path.insert(0, os.getcwd())  # benchmarks/ lives beside src/

from benchmarks.perf.workloads import BY_NAME  # noqa: E402
from repro.crypto import AeadKey, primitives  # noqa: E402

SEED = 2018
OPS = 1500
METHODS = ("seal", "open", "seal_records", "open_records")
ON_BEHALF = tuple(
    os.path.join(*parts) + ".py" for parts in
    (("crypto", "aead"), ("scbr", "messages"), ("sgx", "sealing"))
)


def payload_bytes(value):
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return sum(len(record) for record in value)


def call_site():
    frame = sys._getframe(2)
    while frame.f_code.co_filename.endswith(ON_BEHALF):
        frame = frame.f_back
    path = frame.f_code.co_filename
    package = os.path.basename(os.path.dirname(path))
    return "%s/%s:%s" % (package, os.path.basename(path),
                         frame.f_code.co_name)


def install(sites, keystream_s):
    """Wrap the boundary; ``sites[(site, method)]`` accumulates
    ``[calls, payload bytes, seconds]``.  Returns the undo."""
    originals = [(AeadKey, method, getattr(AeadKey, method))
                 for method in METHODS]
    raw_keystream = primitives.keystream
    originals.append((primitives, "keystream", raw_keystream))

    def wrap(method, raw):
        sealing = method.startswith("seal")

        def wrapper(self, first, *args, **kwargs):
            start = perf_counter()
            result = raw(self, first, *args, **kwargs)
            elapsed = perf_counter() - start
            row = sites.setdefault((call_site(), method), [0, 0, 0.0])
            row[0] += 1
            row[1] += payload_bytes(first if sealing else result)
            row[2] += elapsed
            return result

        return wrapper

    def keystream(key, nonce, length):
        start = perf_counter()
        stream = raw_keystream(key, nonce, length)
        keystream_s[0] += perf_counter() - start
        return stream

    for owner, method, raw in originals[:-1]:
        setattr(owner, method, wrap(method, raw))
    # keystream_xor looks the name up in its module at call time.
    primitives.keystream = keystream

    def uninstall():
        for owner, name, raw in originals:
            setattr(owner, name, raw)

    return uninstall


def main(argv):
    if not argv or argv[0] not in BY_NAME:
        raise SystemExit(
            "usage: seal_sites.py <%s> [ops]" % "|".join(sorted(BY_NAME))
        )
    workload = BY_NAME[argv[0]](SEED, 1.0)
    ops = min(int(argv[1]) if len(argv) > 1 else OPS, workload.ops)
    workload.setup()
    for index in range(workload.warmup_ops):
        workload.step(index)
    sites, keystream_s = {}, [0.0]
    uninstall = install(sites, keystream_s)
    cpu_s = 0.0
    for index in range(ops):
        op = workload.step(workload.warmup_ops + index)
        if not op.ok:
            raise SystemExit("op %d failed" % index)
        cpu_s += op.cost.cpu_s
    uninstall()  # the final audit walk is not part of any op
    workload.finish()
    if not all(workload.checks.values()):
        raise SystemExit("checks failed: %r" % workload.checks)

    print("%s: %d ops, %.1f CPU-ms per op" % (
        argv[0], ops, 1e3 * cpu_s / ops))
    print("%-44s %-12s %9s %8s %8s %7s" % (
        "site", "method", "calls/op", "bytes", "us/call", "share"))
    ranked = sorted(sites.items(), key=lambda item: -item[1][2])
    for (site, method), (calls, size, seconds) in ranked:
        print("%-44s %-12s %9.2f %8.0f %8.1f %6.1f%%" % (
            site, method, calls / ops, size / calls,
            1e6 * seconds / calls, 100 * seconds / cpu_s,
        ))
    sealing_s = sum(row[2] for row in sites.values())
    print("all seal sites %.1f %% of the ops' CPU; HMAC-CTR keystream "
          "%.1f %%" % (100 * sealing_s / cpu_s,
                       100 * keystream_s[0] / cpu_s))


if __name__ == "__main__":
    main(sys.argv[1:])
