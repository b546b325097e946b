"""The five workloads: seeded inputs, one closed-loop client, checks.

Every workload derives all of its inputs from ``random.Random(seed)``
and drives only public API with the default ``FrontDoorConfig()``.
``step(i)`` issues op ``i`` and returns an :class:`Op`; the runner in
``worker.py`` owns warm-up, the timed phase and the statistics.

Correctness checks run after the op's clock has stopped (their time is
returned as ``check`` and taken out of the timed phase) and latch a
named flag in ``checks`` instead of raising, so a failing run still
reports where it failed.
"""

import random
from collections import Counter, namedtuple
from time import perf_counter, process_time

from repro.errors import SecureCloudError
from repro.scbr.naive import LinearIndex
from repro.scbr.workload import ScbrWorkload
from repro.service import SecureFrontDoor, TenantQuota
from repro.sgx.costs import DEFAULT_COSTS, MIB
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim import Environment
from repro.sim.clock import CycleClock, cycles_to_seconds
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.topology import GridTopology

# Host time on two clocks: wall seconds, and CPU seconds of the whole
# process (every thread), which a hypervisor's stolen time leaves alone.
Cost = namedtuple("Cost", "wall_s cpu_s")
NO_COST = Cost(0.0, 0.0)
# ok: outcome "ok"; cost: the request alone; virtual_ms: the cost
# model's latency for it; check: untimed verification after it.
Op = namedtuple("Op", "ok cost virtual_ms check")


def clocks():
    return perf_counter(), process_time()


def since(start):
    return Cost(perf_counter() - start[0], process_time() - start[1])

# High enough that nothing is shed or quota-rejected.
ROOMY_QUOTA = TenantQuota(sealed_bytes=1 << 60, jobs=1 << 40,
                          subscriptions=1 << 40, streams=1 << 40)
ROOMY_RATE = 1e9
# Virtual seconds between requests, as E10 does, so heartbeat loops run.
INTER_ARRIVAL = 0.01
ORACLE_EVERY = 50


def map_prefix(record):
    return [(record.split("-")[0], 1)]


def reduce_sum(_key, values):
    return sum(values)


def matches(constraints, attributes):
    """The benchmark's own constraint oracle for (attr, op, value)."""
    for attribute, operator, value in constraints:
        got = attributes.get(attribute)
        if got is None:
            return False
        if operator == ">" and not got > value:
            return False
        if operator == "<" and not got < value:
            return False
        if operator == "==" and got != value:
            return False
    return True


class Workload:
    """Base: scaling rules, check flags, harness-side counters."""

    name = None
    nominal_ops = 0
    door = None

    def __init__(self, seed, scale):
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed)
        self.ops = self.scaled(self.nominal_ops)
        # The first 5 % of ops are untimed warm-up.
        self.warmup_ops = max(1, round(0.05 * self.ops))
        # Virtual metrics cover this fixed prefix of the timed ops, so
        # a time-boxed run reports the same virtual numbers however
        # many ops the host gets through.
        self.virtual_ops = max(1, self.ops // 3)
        self.checks = {}
        self.publishes = 0
        self.notifications = 0

    def scaled(self, count):
        return max(1, round(count * self.scale))

    def check(self, name, passed):
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    def counters(self):
        """Harness-side counts the per-layer metrics difference."""
        return {}

    def finish(self):
        """Final untimed checks."""


class DoorWorkload(Workload):
    """A workload that talks to one ``SecureFrontDoor``."""

    def open_door(self, seed, tenants):
        self.env = Environment()
        self.door = SecureFrontDoor(self.env, seed=seed)
        self.tenants = ["tenant-%02d" % i for i in range(tenants)]
        for tenant in self.tenants:
            self.door.register_tenant(
                tenant, quota=ROOMY_QUOTA, rate=ROOMY_RATE,
                burst=ROOMY_RATE,
            )

    def request(self, call, *args):
        """One timed door request; returns (receipt, its Cost)."""
        start = clocks()
        receipt = call(*args)
        return receipt, since(start)

    def idle(self):
        self.env.run(until=self.env.now + INTER_ARRIVAL)

    def counters(self):
        return {"publishes": self.publishes,
                "notifications": self.notifications}

    def books_balance(self):
        try:
            self.door.check_identity()
        except SecureCloudError:
            return False
        return True

    def finish(self):
        self.check("identity", self.books_balance())
        for tenant in self.door.tenants:
            offered = self.door.admission.counts(tenant)["offered"]
            self.check(
                "audit", self.door.verify_audit(tenant) == offered + 1
            )


class UploadOpen(DoorWorkload):
    """Pairs of a 1 MiB upload and an open of the same name."""

    name = "upload_open"
    nominal_ops = 2200
    RECORDS = 256
    RECORD_BYTES = 4096
    NAMES = 8

    def setup(self):
        self.open_door(self.seed, 1)
        # One random dataset per name; each upload refreshes one record
        # of it, so no two uploads are equal and generating input stays
        # out of the timed wall.
        self.datasets = [
            [self.rng.randbytes(self.RECORD_BYTES)
             for _ in range(self.RECORDS)]
            for _ in range(self.NAMES)
        ]

    def step(self, i):
        tenant = self.tenants[0]
        which = (i // 2) % self.NAMES
        name = "dataset-%d" % which
        records = self.datasets[which]
        clock = self.door.platform.clock
        if i % 2 == 0:
            records[(i // 2) % self.RECORDS] = self.rng.randbytes(
                self.RECORD_BYTES
            )
            receipt, cost = self.request(
                self.door.upload_dataset, tenant, name, records
            )
            op = Op(receipt.ok, cost, receipt.virtual_ms, NO_COST)
        else:
            # open_dataset returns the records, not a Receipt: its
            # virtual latency is the door platform's clock delta.
            before = clock.now
            opened, cost = self.request(
                self.door.open_dataset, tenant, name
            )
            virtual_ms = 1e3 * cycles_to_seconds(
                clock.now - before, clock.frequency_hz
            )
            check_start = clocks()
            same = opened == records
            self.check("dataset_bytes", same)
            op = Op(same, cost, virtual_ms, since(check_start))
        self.idle()
        return op


def random_subscription(rng):
    return [("load", ">", rng.randrange(100)),
            ("volt", "<", rng.randrange(200, 260)),
            ("feeder", "==", rng.randrange(16))]


def random_publication(rng):
    return {"load": rng.randrange(100), "volt": rng.randrange(200, 260),
            "feeder": rng.randrange(16)}


class ScbrDoorWorkload(DoorWorkload):
    """Shared subscribe/publish steps with the notification oracle."""

    def open_door(self, seed, tenants):
        super().open_door(seed, tenants)
        self.subscriptions = {tenant: [] for tenant in self.tenants}
        self.subscription_seq = 0

    def subscribe(self, tenant):
        constraints = random_subscription(self.rng)
        self.subscription_seq += 1
        receipt, cost = self.request(
            self.door.subscribe, tenant,
            "sub-%d" % self.subscription_seq, constraints,
        )
        self.subscriptions[tenant].append(constraints)
        return Op(receipt.ok, cost, receipt.virtual_ms, NO_COST)

    def publish(self, tenant):
        attributes = random_publication(self.rng)
        receipt, cost = self.request(
            self.door.publish, tenant, attributes
        )
        self.publishes += 1
        check_start = clocks()
        if receipt.ok:
            self.notifications += receipt.detail["notifications"]
            if self.publishes % ORACLE_EVERY == 0:
                # One sealed envelope per subscriber with any match.
                expected = sum(
                    any(matches(c, attributes) for c in constraints)
                    for constraints in self.subscriptions.values()
                )
                self.check(
                    "notifications",
                    receipt.detail["notifications"] == expected,
                )
        return Op(receipt.ok, cost, receipt.virtual_ms,
                  since(check_start))


class TenantMix(ScbrDoorWorkload):
    """Four tenants, small requests, every plane crossed."""

    name = "tenant_mix"
    nominal_ops = 6000
    TENANTS = 4
    PRELOADED_SUBSCRIPTIONS = 64
    JOB_RECORDS = 256
    METERS = (2, 2, 2)          # substations x feeders x meters = 8
    HORIZON = 60.0
    SCHEDULE = ("publish", "upload", "subscribe") * 4 + (
        "publish", "upload", "stream_round", "submit_job",
    )

    def setup(self):
        self.open_door(self.seed, self.TENANTS)
        grid = GridTopology.build(*self.METERS)
        self.job_expected = {}
        self.stream_clock = {tenant: 0.0 for tenant in self.tenants}
        for tenant in self.tenants:
            for _ in range(self.scaled(self.PRELOADED_SUBSCRIPTIONS)):
                self.subscribe(tenant)
            records = [
                "k%d-%d" % (self.rng.randrange(8), index)
                for index in range(self.JOB_RECORDS)
            ]
            # SecureMapReduce.run returns {repr(key): reduced value}.
            self.job_expected[tenant] = dict(Counter(
                repr(record.split("-")[0]) for record in records
            ))
            self.door.upload_dataset(
                tenant, "job-input", [r.encode() for r in records]
            )
            fleet = SmartMeterFleet(grid, seed=self.rng.randrange(1 << 30))
            self.door.attach_stream(tenant, "meters", fleet, grid.meters)

    def step(self, i):
        tenant = self.tenants[i % self.TENANTS]
        kind = self.SCHEDULE[(i // self.TENANTS) % len(self.SCHEDULE)]
        if kind == "publish":
            op = self.publish(tenant)
        elif kind == "subscribe":
            op = self.subscribe(tenant)
        elif kind == "upload":
            records = [self.rng.randbytes(64) for _ in range(4)]
            receipt, cost = self.request(
                self.door.upload_dataset, tenant,
                "small-%d" % (i % 8), records,
            )
            op = Op(receipt.ok, cost, receipt.virtual_ms, NO_COST)
        elif kind == "stream_round":
            start = self.stream_clock[tenant]
            self.stream_clock[tenant] = start + self.HORIZON
            receipt, cost = self.request(
                self.door.stream_round, tenant, "meters", start,
                self.HORIZON,
            )
            op = Op(receipt.ok, cost, receipt.virtual_ms, NO_COST)
        else:
            job = "job-%d" % i
            receipt, cost = self.request(
                self.door.submit_job, tenant, job, "job-input",
                map_prefix, reduce_sum, 2, 1,
            )
            check_start = clocks()
            right = receipt.ok and (
                self.door.jobs[tenant][job]["result"]
                == self.job_expected[tenant]
            )
            self.check("job_result", right)
            op = Op(right, cost, receipt.virtual_ms, since(check_start))
        self.idle()
        return op


class PublishFanout(ScbrDoorWorkload):
    """Seven publishes then one subscribe, into a 4000-row database."""

    name = "publish_fanout"
    nominal_ops = 3000
    TENANTS = 16
    PRELOADED_SUBSCRIPTIONS = 4000

    def setup(self):
        self.open_door(self.seed, self.TENANTS)
        for index in range(self.scaled(self.PRELOADED_SUBSCRIPTIONS)):
            self.subscribe(self.tenants[index % self.TENANTS])

    def step(self, i):
        if i % 8 == 7:
            op = self.subscribe(self.tenants[(i // 8) % self.TENANTS])
        else:
            op = self.publish(self.tenants[i % self.TENANTS])
        self.idle()
        return op


class EpcPaging(Workload):
    """Figure 3's mechanism: a linear scan of a database beyond the EPC.

    Uses no door.  The E1 row this reproduces (96 MB, 480.2 virtual ms)
    depends on the visit pattern over 512 B records, not on what the
    subscriptions say, so a seeded pool cycled over the table gives the
    same virtual time for every seed.
    """

    name = "epc_paging"
    nominal_ops = 20
    DATABASE_MIB = 96
    RECORD_BYTES = 512
    POOL = 8192
    PUBLICATIONS = 8

    def setup(self):
        generator = ScbrWorkload(
            seed=self.seed, num_attributes=50, containment_fraction=0.0
        )
        records = max(
            1, round(self.DATABASE_MIB * self.scale * MIB)
            // self.RECORD_BYTES
        )
        pool = generator.subscriptions(min(self.POOL, records))
        self.publications = generator.publications(self.PUBLICATIONS)
        self.clock = CycleClock()
        self.memory = SimulatedMemory(
            self.clock, DEFAULT_COSTS, enclave=True,
            epc=EpcModel(DEFAULT_COSTS), name="scbr",
        )
        self.index = LinearIndex(
            memory=self.memory, record_bytes=self.RECORD_BYTES
        )
        for position in range(records):
            self.index.insert(pool[position % len(pool)])
        # The reference: the same matcher over native memory.  The
        # table repeats the pool, so matching the pool once gives the
        # same id set; computed here so no oracle call is timed.
        native = LinearIndex()
        for subscription in pool:
            native.insert(subscription)
        self.expected = [native.match(p) for p in self.publications]
        self.visits = 0

    def step(self, i):
        which = i % len(self.publications)
        before = self.clock.now
        start = clocks()
        matched = self.index.match(self.publications[which])
        cost = since(start)
        virtual_ms = 1e3 * cycles_to_seconds(
            self.clock.now - before, self.clock.frequency_hz
        )
        self.visits += self.index.visits_last_match
        same = matched == self.expected[which]
        self.check("match_sets", same)
        return Op(same, cost, virtual_ms, NO_COST)

    def counters(self):
        stats = self.memory.stats
        return {"epc_faults": stats.page_faults,
                "memory_cycles": stats.cycles_memory,
                "visits": self.visits}


class BringupChurn(DoorWorkload):
    """One cold full-stack bring-up per op, first request on each plane."""

    name = "bringup_churn"
    nominal_ops = 100
    TENANTS = 4

    def setup(self):
        self.grid = GridTopology.build(2, 2, 2)

    def step(self, i):
        seed = self.rng.randrange(1 << 20)
        start = clocks()
        self.open_door(seed, self.TENANTS)
        door, tenant = self.door, self.tenants[0]
        records = [b"k%d-%d" % (n % 4, n) for n in range(16)]
        receipts = [
            door.upload_dataset(tenant, "first", records),
            door.submit_job(tenant, "first-job", "first", map_prefix,
                            reduce_sum, 2, 1),
            door.subscribe(tenant, "first-sub", [("load", ">", 5)]),
            door.publish(tenant, {"load": 9}),
            door.attach_stream(
                tenant, "meters", SmartMeterFleet(self.grid, seed=seed),
                self.grid.meters,
            ),
            door.stream_round(tenant, "meters", 0.0, 60.0),
        ]
        ok = self.books_balance() and all(r.ok for r in receipts)
        cost = since(start)
        clock = door.platform.clock
        self.check("job_result", door.jobs[tenant]["first-job"]["result"]
                   == {repr("k%d" % n): 4 for n in range(4)})
        delivered = receipts[3].detail.get("notifications")
        self.check("notifications", delivered == 1)
        self.publishes += 1
        self.notifications += delivered or 0
        return Op(ok, cost,
                  1e3 * cycles_to_seconds(clock.now, clock.frequency_hz),
                  NO_COST)


BY_NAME = {
    cls.name: cls
    for cls in (UploadOpen, TenantMix, PublishFanout, EpcPaging,
                BringupChurn)
}
