"""Where one cold front-door bring-up spends its CPU.

Runs the ``bringup_churn`` benchmark's request sequence -- a seeded
default ``SecureFrontDoor`` with four tenants, then the first upload,
job, subscribe, publish, stream attach and stream round of one tenant
-- once untimed (imports and first-use tables stay out of the budget),
then ``REPEATS`` times with the public-key kernels wrapped.  Prints,
per bring-up, the SGX machines (``SgxPlatform``) built -- each one
generates an RSA quoting key -- then the calls and CPU ms of RSA key
generation, DH key generation, DH shared keys, RSA signing and RSA
verification, and the residual: everything else the bring-up does
(DESIGN section 14, "Fixed-parameter modexps").  Run the same file in
a parent checkout for a before/after (``cd parent && PYTHONPATH=src
python <repo>/tools/bringup_cost.py``).

Usage: ``PYTHONPATH=src python tools/bringup_cost.py``
(``make bringup-cost``).
"""

from time import process_time

from repro.crypto.dh import DhKeyPair
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.service import SecureFrontDoor, TenantQuota
from repro.sgx.platform import SgxPlatform
from repro.sim import Environment
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.topology import GridTopology

SEED = 2018
REPEATS = 10
TENANTS = 4
ROOMY = 1 << 40
KERNELS = (
    ("RSA keygen", RsaKeyPair, "generate"),
    ("DH generate", DhKeyPair, "generate"),
    ("DH shared_key", DhKeyPair, "shared_key"),
    ("RSA sign", RsaKeyPair, "sign"),
    ("RSA verify", RsaPublicKey, "verify"),
)


def map_prefix(record):
    return [(record.split("-")[0], 1)]


def reduce_sum(_key, values):
    return sum(values)


def bring_up(seed, grid):
    """One cold door and the first request on every plane."""
    door = SecureFrontDoor(Environment(), seed=seed)
    tenants = ["tenant-%02d" % i for i in range(TENANTS)]
    for tenant in tenants:
        door.register_tenant(
            tenant, rate=1e9, burst=1e9,
            quota=TenantQuota(sealed_bytes=ROOMY, jobs=ROOMY,
                              subscriptions=ROOMY, streams=ROOMY),
        )
    tenant = tenants[0]
    records = [b"k%d-%d" % (n % 4, n) for n in range(16)]
    receipts = [
        door.upload_dataset(tenant, "first", records),
        door.submit_job(tenant, "first-job", "first", map_prefix,
                        reduce_sum, 2, 1),
        door.subscribe(tenant, "first-sub", [("load", ">", 5)]),
        door.publish(tenant, {"load": 9}),
        door.attach_stream(tenant, "meters",
                           SmartMeterFleet(grid, seed=seed), grid.meters),
        door.stream_round(tenant, "meters", 0.0, 60.0),
    ]
    if not all(receipt.ok for receipt in receipts):
        raise SystemExit("bring-up refused a request: %r" % receipts)


def wrap(books, label, owner, name):
    """Count calls to ``owner.name`` and the CPU seconds they take."""
    original = owner.__dict__[name]
    inner = original.__func__ if isinstance(original, classmethod) else original

    def timed(*args, **kwargs):
        start = process_time()
        try:
            return inner(*args, **kwargs)
        finally:
            books[label][0] += 1
            books[label][1] += process_time() - start

    setattr(owner, name,
            classmethod(timed) if isinstance(original, classmethod) else timed)


def main():
    grid = GridTopology.build(2, 2, 2)
    bring_up(SEED - 1, grid)
    books = {label: [0, 0.0] for label, _owner, _name in KERNELS}
    for label, owner, name in KERNELS:
        wrap(books, label, owner, name)
    # Counted, not timed: a machine's CPU is mostly its RSA keygen,
    # already in the kernels' share.
    machines = {"SgxPlatform": [0, 0.0]}
    wrap(machines, "SgxPlatform", SgxPlatform, "__init__")
    start = process_time()
    for repeat in range(REPEATS):
        bring_up(SEED + repeat, grid)
    total = (process_time() - start) / REPEATS

    print("per bring-up (mean of %d)   calls   CPU ms   share" % REPEATS)
    print("%-26s %6.1f" % (
        "SGX machines built", machines["SgxPlatform"][0] / REPEATS))
    kernels = 0.0
    for label, (calls, seconds) in books.items():
        seconds /= REPEATS
        kernels += seconds
        print("%-26s %6.1f %8.2f %6.1f %%" % (
            label, calls / REPEATS, 1e3 * seconds, 100 * seconds / total))
    residual = total - kernels
    print("%-26s %6s %8.2f %6.1f %%" % (
        "residual", "", 1e3 * residual, 100 * residual / total))
    print("%-26s %6s %8.2f" % ("bring-up", "", 1e3 * total))


if __name__ == "__main__":
    main()
