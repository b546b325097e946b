"""What registering a subscription costs as the database fills.

Brings up one seeded default ``SecureFrontDoor``, registers 16 tenants
and subscribes 4 000 times round-robin (the set-up of the
``publish_fanout`` benchmark workload), timing each subscribe in CPU
seconds and, inside it, the plane's checkpoints (``ShardFleet.log``
re-snapshots a shard every ``interval`` inserts).  Prints CPU ms per
subscribe for each bucket of 1 000, the checkpoint count and ms per
checkpoint, and the checkpoint share of all registration CPU: a flat
first column says a subscribe costs the same into a full database as
into an empty one (DESIGN section 8, "What a checkpoint costs").  The
first bucket also carries each tenant's attested key exchange (16 of
them, made on a tenant's first subscribe).

Usage: ``PYTHONPATH=src python tools/registration_cost.py``
(``make registration-cost``).
"""

import random
from time import process_time

from repro.service import SecureFrontDoor, TenantQuota
from repro.sim import Environment

SEED = 2018
TENANTS = 16
SUBSCRIPTIONS = 4000
BUCKET = 1000
ROOMY = 1 << 40


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
    checkpoint = fleet.checkpoint
    buckets = []  # [subscribe CPU-s, checkpoint CPU-s, checkpoints]

    def timed_checkpoint(member):
        start = process_time()
        checkpoint(member)
        buckets[-1][1] += process_time() - start
        buckets[-1][2] += 1

    fleet.checkpoint = timed_checkpoint
    for index in range(SUBSCRIPTIONS):
        if index % BUCKET == 0:
            buckets.append([0.0, 0.0, 0])
        constraints = [("load", ">", rng.randrange(100)),
                       ("volt", "<", rng.randrange(200, 260)),
                       ("feeder", "==", rng.randrange(16))]
        start = process_time()
        receipt = door.subscribe(
            tenants[index % TENANTS], "sub-%d" % index, constraints
        )
        buckets[-1][0] += process_time() - start
        if not receipt.ok:
            raise SystemExit("subscribe %d refused: %r" % (index, receipt))

    print("subscriptions   ms/subscribe  checkpoints  ms/checkpoint")
    for position, (total, sealing, count) in enumerate(buckets):
        print("%5d - %5d   %12.3f  %11d  %13.2f" % (
            position * BUCKET, (position + 1) * BUCKET,
            1e3 * total / BUCKET, count, 1e3 * sealing / max(count, 1),
        ))
    total = sum(bucket[0] for bucket in buckets)
    sealing = sum(bucket[1] for bucket in buckets)
    print("registration %.2f CPU-s, checkpoints %.2f CPU-s (%.0f %%), "
          "last / first bucket %.2fx" % (
              total, sealing, 100 * sealing / total,
              buckets[-1][0] / buckets[0][0],
          ))


if __name__ == "__main__":
    main()
