"""What registering a subscription costs as the database fills.

Brings up one seeded default ``SecureFrontDoor``, registers 16 tenants
and subscribes 4 000 times round-robin (the set-up of the
``publish_fanout`` benchmark workload), timing each subscribe in CPU
seconds and, inside it, three parts:

- ``probe+insert``: the shard ECALLs ``covers_root`` (placement: does a
  root of this shard cover the new filter?) and ``insert`` -- opening
  the plane-sealed subscription and walking the covering forest;
- ``keystream``: the HMAC-CTR keystream under every single-payload
  ``AeadKey.seal`` / ``open`` of the subscribe (client envelope, plane
  messages, audit entry), wherever it runs;
- ``checkpoint``: the plane's checkpoints (``ShardFleet.log``
  re-snapshots a shard every ``interval`` inserts).

The first two overlap (a probe opens its blob).  Prints, for each bucket
of 1 000, CPU ms per subscribe and per part, the checkpoint count and
ms per checkpoint, then the totals: a flat first column says a
subscribe costs the same into a full database as into an empty one
(DESIGN section 8, "What a checkpoint costs").  The first bucket also
carries each tenant's attested key exchange (16 of them, made on a
tenant's first subscribe).  Run the same file in a parent checkout for
a before/after (``cd parent && PYTHONPATH=src python
<repo>/tools/registration_cost.py``): it hooks whichever keystream
function the tree's AEAD path calls.

Usage: ``PYTHONPATH=src python tools/registration_cost.py``
(``make registration-cost``).
"""

import random
from time import process_time

from repro.crypto import primitives
from repro.scbr.sharding import SHARD_CODE
from repro.service import SecureFrontDoor, TenantQuota
from repro.sim import Environment

SEED = 2018
TENANTS = 16
SUBSCRIPTIONS = 4000
BUCKET = 1000
ROOMY = 1 << 40
PROBE_AND_INSERT = ("covers_root", "insert")
# The HMAC-CTR kernel the AEAD path calls, by module-global name: a
# tree with per-key SHA-256 pad states calls ``pad_keystream``, an
# older one ``keystream``.
KEYSTREAM = next(name for name in ("pad_keystream", "keystream")
                 if hasattr(primitives, name))
# One bucket: subscribe, probe+insert, keystream, checkpoint CPU-s,
# checkpoint count.
SUBSCRIBE, ECALLS, STREAM, CHECKPOINT, COUNT = range(5)


def timed(function, buckets, column):
    """``function``, adding its CPU seconds to the open bucket."""
    def wrapper(*args, **kwargs):
        start = process_time()
        try:
            return function(*args, **kwargs)
        finally:
            buckets[-1][column] += process_time() - start

    return wrapper


def main():
    rng = random.Random(SEED)
    door = SecureFrontDoor(Environment(), seed=SEED)
    tenants = ["tenant-%02d" % i for i in range(TENANTS)]
    for tenant in tenants:
        door.register_tenant(
            tenant, quota=TenantQuota(subscriptions=ROOMY),
            rate=1e9, burst=1e9,
        )
    fleet = door._ensure_router().fleet
    buckets = [[0.0, 0.0, 0.0, 0.0, 0]]
    checkpoint = fleet.checkpoint

    def counted_checkpoint(member):
        buckets[-1][COUNT] += 1
        return checkpoint(member)

    fleet.checkpoint = timed(counted_checkpoint, buckets, CHECKPOINT)
    entry_points = SHARD_CODE.entry_points
    originals = {name: entry_points[name] for name in PROBE_AND_INSERT}
    for name, function in originals.items():
        entry_points[name] = timed(function, buckets, ECALLS)
    raw_keystream = getattr(primitives, KEYSTREAM)
    setattr(primitives, KEYSTREAM, timed(raw_keystream, buckets, STREAM))
    try:
        for index in range(SUBSCRIPTIONS):
            if index and index % BUCKET == 0:
                buckets.append([0.0, 0.0, 0.0, 0.0, 0])
            constraints = [("load", ">", rng.randrange(100)),
                           ("volt", "<", rng.randrange(200, 260)),
                           ("feeder", "==", rng.randrange(16))]
            start = process_time()
            receipt = door.subscribe(
                tenants[index % TENANTS], "sub-%d" % index, constraints
            )
            buckets[-1][SUBSCRIBE] += process_time() - start
            if not receipt.ok:
                raise SystemExit("subscribe %d refused: %r" % (index, receipt))
    finally:
        entry_points.update(originals)
        setattr(primitives, KEYSTREAM, raw_keystream)
    if not all(bucket[STREAM] for bucket in buckets):
        raise SystemExit("the %s hook counted nothing: the AEAD path no "
                         "longer calls it" % KEYSTREAM)

    print("subscriptions   ms/subscribe  probe+insert  keystream  "
          "checkpoints  ms/checkpoint")
    for position, bucket in enumerate(buckets):
        print("%5d - %5d   %12.3f  %12.3f  %9.3f  %11d  %13.2f" % (
            position * BUCKET, (position + 1) * BUCKET,
            1e3 * bucket[SUBSCRIBE] / BUCKET, 1e3 * bucket[ECALLS] / BUCKET,
            1e3 * bucket[STREAM] / BUCKET, bucket[COUNT],
            1e3 * bucket[CHECKPOINT] / max(bucket[COUNT], 1),
        ))
    total, ecalls, stream, sealing = (
        sum(bucket[column] for bucket in buckets)
        for column in (SUBSCRIBE, ECALLS, STREAM, CHECKPOINT)
    )
    print("registration %.2f CPU-s: probe+insert %.2f (%.0f %%), keystream "
          "%.2f (%.0f %%), checkpoints %.2f (%.0f %%); last / first bucket "
          "%.2fx" % (
              total, ecalls, 100 * ecalls / total, stream,
              100 * stream / total, sealing, 100 * sealing / total,
              buckets[-1][SUBSCRIBE] / buckets[0][SUBSCRIBE],
          ))


if __name__ == "__main__":
    main()
