"""The multi-tenant secure front door over the sealed planes.

``SecureFrontDoor`` is the long-running, tenant-facing service layer
the stack has been missing: a datasets/jobs/studies-style resource
model where every request is admitted (token bucket in virtual time),
quota-checked, executed against the *real* planes, metered for
billing, and recorded in the tenant's sealed audit chain -- exactly
once, even when the gateway enclave crashes mid-request.

Routing:

====================  =============================================
request               plane
====================  =============================================
dataset upload        batch sealing (``SB2`` above one chunk,
                      per-tenant dataset key, AAD-bound name)
job submit            secure map/reduce (``bigdata.mapreduce``,
                      per-job key minted in the gateway)
subscription/publish  sharded SCBR plane (``scbr.sharding``)
stream attach         sealed streaming plane (``repro.streams``)
====================  =============================================

Failure handling rides the shared substrate: gateway crashes surface
as :class:`~repro.errors.EnclaveLostError`, the retry loop recovers
the enclave from its platform-sealed root and the host-stored sealed
chain heads alone, and the request replays -- it appends at the chain
position captured when it arrived, which makes the audit entry
exactly-once.
Every terminal outcome is counted: ``offered == completed + shed +
quota_rejected + failed`` is an asserted identity, not a hope.
"""

from dataclasses import dataclass, field

from repro.errors import (
    ConfigurationError,
    EnclaveLostError,
    QuotaExceededError,
    SecureCloudError,
)
from repro.crypto.aead import AeadKey
from repro.crypto.primitives import DeterministicRandomSource
from repro.microservices.qos import QosMonitor
from repro.retry import BackoffClock, RetryPolicy, retry_call
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.clock import cycles_to_seconds
from repro.telemetry import DEFAULT_CYCLE_BUCKETS, default_registry

from repro.service.admission import AdmissionController
from repro.service.gateway import GATEWAY_CODE
from repro.service.quota import QuotaLedger, TenantBilling, TenantQuota


class FrontDoorConfig:
    """Tunables of one front door (all deterministic)."""

    def __init__(self, admit_rate=50.0, admit_burst=10.0,
                 default_quota=None, scbr_shards=2, stream_shards=2,
                 stream_window=None, retry_policy=None):
        self.admit_rate = admit_rate
        self.admit_burst = admit_burst
        self.default_quota = default_quota or TenantQuota()
        self.scbr_shards = scbr_shards
        self.stream_shards = stream_shards
        self.stream_window = stream_window
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=5)


@dataclass(frozen=True)
class Receipt:
    """What the tenant gets back: outcome plus audited position."""

    request_id: str
    tenant: str
    action: str
    resource: str
    outcome: str           # ok | shed | quota | error
    detail: dict = field(default_factory=dict)
    virtual_ms: float = 0.0

    @property
    def ok(self):
        return self.outcome == "ok"


class SecureFrontDoor:
    """Admission, quotas, sealed audit, and routing for N tenants."""

    def __init__(self, env, seed=0, config=None, chaos=None,
                 root_key=None):
        self.env = env
        self.seed = seed
        self.config = config or FrontDoorConfig()
        self.chaos = chaos
        self.platform = SgxPlatform(seed=seed, quoting_key_bits=512)
        # One service judges every quote the door depends on: gateway
        # bring-up, recovery re-attestation, and the SCBR plane it
        # instantiates (the stream plane builds its own).
        self.attestation = AttestationService()
        self.attestation.register_platform(
            self.platform.platform_id,
            self.platform.quoting_enclave.public_key,
        )
        self.attestation.trust_measurement(GATEWAY_CODE.measurement)
        # The operator's service root: seed-derived by default so two
        # same-seed doors seal byte-identical state (the determinism
        # gates diff exactly that); production hands in a real key.
        self._root_key = root_key or AeadKey.generate(
            DeterministicRandomSource(0x5EC0 + seed)
        )

        self.gateway = None
        self.sealed_root = None
        self.gateway_recoveries = 0
        self._spawn_gateway(first=True)

        self.admission = AdmissionController(
            self.config.admit_rate, self.config.admit_burst
        )
        self.quota = QuotaLedger(self.config.default_quota)
        self.monitor = QosMonitor(env)
        self.billing = TenantBilling(self.monitor)
        self.backoff = BackoffClock()

        # Resource model: per tenant, named sealed datasets, completed
        # jobs, live subscriptions, and attached stream sources.
        self.tenants = []
        self.datasets = {}
        self.jobs = {}
        self.subscriptions = {}
        self.streams = {}
        # The sealed audit store the host keeps for each tenant: the
        # ordered blobs and the latest platform-sealed head.
        self.audit_blobs = {}
        self.audit_heads = {}

        # Terminal-outcome accounting (the silent-loss identity).
        self.completed = {}
        self.failed = {}
        self.latencies_ms = {}
        self._request_seq = {}
        self._ops = 0

        self._router = None
        self._scbr_clients = {}
        self._stream_plane = None

        registry = default_registry()
        self._registry = registry
        self._tel_requests = registry.histogram(
            "service.request_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )
        self._tel_recoveries = registry.counter("service.gateway_recoveries")
        self._tel_audit_entries = registry.counter("service.audit_entries")

    # -- gateway lifecycle ---------------------------------------------

    def _spawn_gateway(self, first=False):
        """Load, attest, and provision (or restore) the gateway."""
        self.gateway = self.platform.load_enclave(
            GATEWAY_CODE, name="svc-gateway"
        )
        quote = self.platform.quote(
            self.gateway, report_data=b"svc-gateway-join"
        )
        self.attestation.verify(
            quote, expected_measurement=GATEWAY_CODE.measurement
        )
        if first:
            self.sealed_root = self.gateway.ecall(
                "setup", self._root_key.key_bytes
            )
        else:
            self.gateway.ecall(
                "restore", self.sealed_root, dict(self.audit_heads)
            )

    def _recover_gateway(self):
        """Respawn after a crash; chains resume from sealed heads."""
        self.gateway_recoveries += 1
        self._tel_recoveries.inc()
        self._spawn_gateway(first=False)

    def _maybe_crash(self, stage):
        """Seeded mid-request gateway crash (chaos plane hook)."""
        self._ops += 1
        if self.chaos is not None and self.chaos.crashes_shard(
            "gateway", "%s|%d" % (stage, self._ops)
        ):
            self.gateway.destroy()
            raise EnclaveLostError(
                "gateway enclave crashed mid-request (%s)" % stage
            )

    # -- tenants --------------------------------------------------------

    def register_tenant(self, tenant_id, quota=None, rate=None,
                        burst=None):
        """Bring one tenant onto the door: keys, bucket, quota, books."""
        if tenant_id in self.datasets:
            return tenant_id
        blob, head = self.gateway.ecall(
            "register_tenant", tenant_id, self.env.now
        )
        self.audit_blobs[tenant_id] = [blob] if blob is not None else []
        self.audit_heads[tenant_id] = head
        if blob is not None:
            self._tel_audit_entries.inc()
        self.admission.register(
            tenant_id, rate=rate, burst=burst, now=self.env.now
        )
        self.quota.register(tenant_id, quota)
        self.billing.register(tenant_id)
        self.tenants.append(tenant_id)
        self.datasets[tenant_id] = {}
        self.jobs[tenant_id] = {}
        self.subscriptions[tenant_id] = set()
        self.streams[tenant_id] = {}
        self.completed[tenant_id] = 0
        self.failed[tenant_id] = 0
        self.latencies_ms[tenant_id] = []
        self._request_seq[tenant_id] = 0
        return tenant_id

    def _require_tenant(self, tenant_id):
        if tenant_id not in self.datasets:
            raise ConfigurationError(
                "tenant %r is not registered" % tenant_id
            )

    # -- the audited request pipeline ----------------------------------

    def _audit(self, tenant_id, position, action, resource, outcome,
               detail=""):
        """One exactly-once audit append, storing blob and head.

        ``position`` is the chain length captured when the request
        arrived: a replay after the entry landed appends nothing.
        """
        blob, head = self.gateway.ecall(
            "append_audit", tenant_id, position, self.env.now,
            action, resource, outcome, detail,
        )
        self.audit_heads[tenant_id] = head
        if blob is not None:
            self.audit_blobs[tenant_id].append(blob)
            self._tel_audit_entries.inc()

    def _request(self, tenant_id, action, resource, body,
                 cost=1.0, quota_kind=None, quota_amount=0):
        """Admission -> quota -> retried body + audit -> metering."""
        self._require_tenant(tenant_id)
        self._request_seq[tenant_id] += 1
        request_id = "%s|%s|%s|%d" % (
            tenant_id, action, resource, self._request_seq[tenant_id]
        )
        position = len(self.audit_blobs[tenant_id])
        clock = self.platform.clock
        start = clock.now

        def audit(outcome, detail=""):
            # Every append of this request names the same position, so
            # however often it is replayed at most one of them lands.
            self._audit(
                tenant_id, position, action, resource, outcome, detail
            )

        def finish(outcome, detail):
            elapsed = clock.now - start
            seconds = cycles_to_seconds(elapsed, clock.frequency_hz)
            virtual_ms = 1000.0 * seconds
            self._tel_requests.observe(elapsed)
            if outcome == "ok":
                self.completed[tenant_id] += 1
                self.latencies_ms[tenant_id].append(virtual_ms)
                self.billing.observe(tenant_id, seconds)
            return Receipt(
                request_id=request_id, tenant=tenant_id, action=action,
                resource=resource, outcome=outcome, detail=detail,
                virtual_ms=virtual_ms,
            )

        if not self.admission.admit(tenant_id, self.env.now, cost):
            # Shed before any sealed-plane work -- but never silently:
            # the rejection itself is an audited, sealed fact.
            self._with_recovery(lambda: audit("shed"))
            return finish("shed", {})
        if quota_kind is not None:
            try:
                self.quota.charge(tenant_id, quota_kind, quota_amount)
            except QuotaExceededError as exc:
                self._with_recovery(
                    lambda: audit("quota", exc.__class__.__name__)
                )
                return finish("quota", {"error": str(exc)})

        def attempt(_attempt):
            # Crash points bracket the plane work and the audit append:
            # "pre" models an enclave death before anything happened,
            # "ack" models the sealed entry's acknowledgement getting
            # lost with the enclave after the append.  Either way the
            # replay converges on exactly one chain entry.
            self._maybe_crash("pre")
            detail = body()
            audit("ok", detail.get("audit", ""))
            self._maybe_crash("ack")
            return detail

        def on_retry(_attempt, error, _delay):
            if isinstance(error, EnclaveLostError) and (
                self.gateway.destroyed
            ):
                self._recover_gateway()

        try:
            detail = retry_call(
                attempt, self.config.retry_policy, self.backoff,
                on_retry=on_retry,
            )
        except SecureCloudError as exc:
            if quota_kind is not None:
                self.quota.release(tenant_id, quota_kind, quota_amount)
            self.failed[tenant_id] += 1
            self._with_recovery(
                lambda: audit("error", exc.__class__.__name__)
            )
            return finish("error", {"error": str(exc)})
        return finish("ok", detail)

    def _with_recovery(self, operation):
        """Run a gateway call, recovering once if the enclave is dark.

        Used for the bookkeeping appends outside the main retry loop
        (shed/quota/error outcomes must land even when a previous
        request killed the gateway).
        """
        try:
            return operation()
        except EnclaveLostError:
            self._recover_gateway()
            return operation()

    # -- datasets -------------------------------------------------------

    def upload_dataset(self, tenant_id, name, records):
        """Seal ``records`` under the tenant's dataset key."""
        records = [bytes(record) for record in records]
        payload = sum(len(record) for record in records)

        def body():
            blob = self.gateway.ecall("seal_dataset", tenant_id, name, records)
            self.datasets[tenant_id][name] = blob
            return {
                "sealed_bytes": len(blob),
                "records": len(records),
                "audit": "records=%d bytes=%d" % (len(records), payload),
            }

        return self._request(
            tenant_id, "dataset.upload", name, body,
            quota_kind="sealed_bytes", quota_amount=payload,
        )

    def open_dataset(self, tenant_id, name):
        """Open a tenant's sealed dataset (in-boundary staging)."""
        self._require_tenant(tenant_id)
        blob = self.datasets[tenant_id].get(name)
        if blob is None:
            raise ConfigurationError(
                "tenant %r has no dataset %r" % (tenant_id, name)
            )
        return self._with_recovery(
            lambda: self.gateway.ecall("open_dataset", tenant_id, name, blob)
        )

    # -- jobs -----------------------------------------------------------

    def submit_job(self, tenant_id, job_name, dataset_name, map_fn,
                   reduce_fn, mappers=2, reducers=2):
        """Run a secure map/reduce over one of the tenant's datasets.

        The job key is minted in the gateway from the tenant root, so
        every split, shuffle partition, and output of tenant A's job is
        sealed under material tenant B can never derive.
        """
        from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce

        def body():
            records = [
                record.decode("utf-8")
                for record in self.open_dataset(tenant_id, dataset_name)
            ]
            job_key = AeadKey(self._with_recovery(
                lambda: self.gateway.ecall("job_key", tenant_id, job_name)
            ))
            job = MapReduceJob(
                map_fn=map_fn, reduce_fn=reduce_fn,
                mappers=mappers, reducers=reducers,
            )
            engine = SecureMapReduce(
                self.platform, job,
                chaos=self.chaos,
                retry_policy=self.config.retry_policy,
                job_key=job_key,
            )
            result = engine.run(records)
            summary = {
                "keys": len(result),
                "crashes": engine.crashes_detected,
                "result": result,
            }
            self.jobs[tenant_id][job_name] = summary
            return {
                "keys": len(result),
                "crashes": engine.crashes_detected,
                "audit": "dataset=%s keys=%d" % (dataset_name, len(result)),
            }

        return self._request(
            tenant_id, "job.submit", job_name, body,
            quota_kind="jobs", quota_amount=1,
        )

    # -- SCBR subscriptions ---------------------------------------------

    def _ensure_router(self):
        if self._router is None:
            from repro.scbr.sharding import ShardedScbrRouter

            self._router = ShardedScbrRouter(
                self.platform,
                lambda i: SgxPlatform(
                    seed=1000 * (self.seed + 1) + i, quoting_key_bits=512
                ),
                attestation_service=self.attestation,
                shards=self.config.scbr_shards,
            )
            self.attestation.trust_measurement(self._router.measurement)
        return self._router

    def _scbr_client(self, tenant_id):
        client = self._scbr_clients.get(tenant_id)
        if client is None:
            from repro.scbr.router import ScbrClient

            client = ScbrClient(
                tenant_id, self._ensure_router(), self.attestation
            )
            self._scbr_clients[tenant_id] = client
        return client

    def subscribe(self, tenant_id, subscription_id, constraints):
        """Route a subscription into the sharded matching plane.

        ``constraints`` may be :class:`~repro.scbr.filters.Constraint`
        objects or ``(attribute, operator, value)`` triples (operator
        as its string form, e.g. ``">"``).
        """
        from repro.scbr.filters import Constraint, Operator, Subscription

        self._ensure_router()
        parsed = [
            c if isinstance(c, Constraint)
            else Constraint(c[0], Operator(c[1]), c[2])
            for c in constraints
        ]

        def body():
            client = self._scbr_client(tenant_id)
            admitted_id = client.subscribe(Subscription(
                subscription_id, parsed, tenant_id
            ))
            self.subscriptions[tenant_id].add(admitted_id)
            return {
                "subscription": admitted_id,
                "audit": "sub=%s" % admitted_id,
            }

        return self._request(
            tenant_id, "scbr.subscribe", subscription_id, body,
            quota_kind="subscriptions", quota_amount=1,
        )

    def publish(self, tenant_id, attributes):
        """Publish into the matching plane; notifications fan out."""
        from repro.scbr.filters import Publication

        self._ensure_router()

        def body():
            client = self._scbr_client(tenant_id)
            notifications = client.publish(Publication(dict(attributes)))
            count = (
                len(notifications)
                if isinstance(notifications, list) else 0
            )
            return {"notifications": count, "audit": "match=%d" % count}

        return self._request(tenant_id, "scbr.publish", "-", body)

    # -- streams --------------------------------------------------------

    def _ensure_stream_plane(self):
        if self._stream_plane is None:
            from repro.cluster.nodes import NodeTopology
            from repro.streams import SecureStreamPlane, StreamConfig

            topology = NodeTopology.build(3, seed=self.seed + 7)
            self._stream_plane = SecureStreamPlane(
                topology,
                StreamConfig(window=self.config.stream_window),
                shards=self.config.stream_shards,
                seed=self.seed + 8,
                env=self.env,
                name="svc-streams",
            )
        return self._stream_plane

    def attach_stream(self, tenant_id, name, fleet, meters,
                      batch_records=12):
        """Attach a sealed meter stream source for this tenant."""
        from repro.streams import MeterStreamSource

        plane = self._ensure_stream_plane()

        def body():
            source = MeterStreamSource(
                "%s-%s" % (tenant_id, name), fleet, meters,
                plane.ingest_key_bytes, batch_records=batch_records,
            )
            self.streams[tenant_id][name] = source
            return {"source": source.source_id,
                    "audit": "stream=%s" % name}

        return self._request(
            tenant_id, "stream.attach", name, body,
            quota_kind="streams", quota_amount=1,
        )

    def stream_round(self, tenant_id, name, start, horizon):
        """Produce one horizon of readings and pump it through."""
        plane = self._ensure_stream_plane()

        def body():
            source = self.streams[tenant_id].get(name)
            if source is None:
                raise ConfigurationError(
                    "tenant %r has no stream %r" % (tenant_id, name)
                )
            before = len(plane.committed)
            source.produce(start, start + horizon)
            rounds = 0
            while rounds < 10_000 and (source.backlog or any(
                plane.shards[sid].queue
                for sid in plane.table.shard_ids()
            )):
                rounds += 1
                self.env.run(until=self.env.now
                             + plane.config.round_interval)
                plane.pump([source])
            committed = len(plane.committed) - before
            return {"committed": committed, "rounds": rounds,
                    "audit": "windows=%d" % committed}

        return self._request(
            tenant_id, "stream.round", name, body
        )

    # -- audit verification and accounting ------------------------------

    def verify_audit(self, tenant_id):
        """In-enclave verification of the host-stored chain; count."""
        self._require_tenant(tenant_id)
        return self._with_recovery(
            lambda: self.gateway.ecall(
                "verify_audit", tenant_id,
                list(self.audit_blobs[tenant_id]),
            )
        )

    def audit_head(self, tenant_id):
        """The attested plaintext head: ``(count, head_hash_hex)``."""
        self._require_tenant(tenant_id)
        return self._with_recovery(
            lambda: self.gateway.ecall("audit_head", tenant_id)
        )

    def export_audit(self, tenant_id):
        """The sealed blobs the host stores (operator verification)."""
        self._require_tenant(tenant_id)
        return list(self.audit_blobs[tenant_id])

    def stats(self, tenant_id):
        """The full accounting picture for one tenant."""
        self._require_tenant(tenant_id)
        admission = self.admission.counts(tenant_id)
        return {
            **admission,
            "quota_rejected": self.quota.rejected_total(tenant_id),
            "completed": self.completed[tenant_id],
            "failed": self.failed[tenant_id],
            "audit_entries": len(self.audit_blobs[tenant_id]),
            "usage": dict(self.quota.usage[tenant_id]),
        }

    def check_identity(self):
        """The door-wide silent-loss identity, across all tenants.

        Every offered request must end as exactly one of: completed,
        shed, quota-rejected, or failed.  Raises on imbalance; returns
        the totals otherwise.
        """
        totals = self.admission.check_identity()
        accounted = {"completed": 0, "quota_rejected": 0, "failed": 0}
        for tenant_id in self.tenants:
            accounted["completed"] += self.completed[tenant_id]
            accounted["quota_rejected"] += (
                self.quota.rejected_total(tenant_id)
            )
            accounted["failed"] += self.failed[tenant_id]
        if totals["offered"] != (
            accounted["completed"] + totals["shed"]
            + accounted["quota_rejected"] + accounted["failed"]
        ):
            raise ConfigurationError(
                "front-door books do not balance: %r vs %r"
                % (totals, accounted)
            )
        return {**totals, **accounted}
