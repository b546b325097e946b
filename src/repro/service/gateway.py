"""The front-door gateway enclave: tenant keys and audit, in-enclave.

The gateway is the one enclave every tenant request crosses.  Its
state -- the service root key, every tenant's derived key set, and
every tenant's audit chain head -- lives in enclave memory the host
cannot read.  The trust split mirrors the rest of the stack:

- the *service root key* is released to the gateway only after its
  quote verifies through the door's attestation service (the operator
  provisioning a measured gateway, CAS-style), and is
  immediately platform-sealed so a crashed gateway restarts without a
  second key release;
- *per-tenant roots* are derived in-enclave via HKDF with per-tenant
  labels and never leave; purpose keys (dataset sealing, audit,
  per-job) derive from the tenant root with domain-separated labels,
  so no ciphertext sealed for tenant A can ever open under tenant B's
  keys -- the conformance oracle asserts exactly this, stack-wide;
- the *audit chain* appends happen in-enclave at a caller-named
  chain position, so a request replayed through the retry substrate
  after a mid-request enclave crash is recorded exactly once; the
  head (count and hash -- constant size, whatever the history) is
  platform-sealed back to the host on every append, and it alone is
  what a restarted gateway recovers from.

Per-job keys are returned to the map/reduce driver, which -- as since
PR 1 -- stands inside the trust boundary (it models a driver enclave;
it already holds job keys and provisions attested workers).
"""

import json

from repro.errors import ConfigurationError, IntegrityError
from repro.crypto.aead import AeadKey
from repro.crypto.kdf import hkdf
from repro.sgx.enclave import EnclaveCode

from repro.service.audit import AuditChain, verify_chain

# Virtual cycle costs of the gateway hot paths, in the same currency as
# the rest of the cost model.  An audit append is a hash plus one AEAD
# pass over a small record; sealing charges per record on top of a
# fixed ECALL body.
GATEWAY_SETUP_CYCLES = 60_000
TENANT_REGISTER_CYCLES = 25_000
AUDIT_APPEND_CYCLES = 9_000
DATASET_SEAL_BASE_CYCLES = 12_000
DATASET_SEAL_RECORD_CYCLES = 450
KEY_DERIVE_CYCLES = 4_000

# The derivation labels are public: the trust argument rests on the
# secrecy of the root, not of the schedule, and the conformance oracle
# re-derives every tenant key from them to audit isolation offline.
TENANT_LABEL = b"svc|tenant|"
AUDIT_KEY_LABEL = b"svc|key|audit"
DATASET_KEY_LABEL = b"svc|key|dataset"
JOB_KEY_LABEL = b"svc|key|job|"

_ROOT_SEAL_PREFIX = b"svc|root|v1|"


def derive_tenant_root(root_key_bytes, tenant_id):
    """Tenant root = HKDF(service root, per-tenant label).

    Module-level (not enclave-private) because the conformance oracle
    re-derives the same keys from the root to verify isolation; the
    *secrecy* of the derivation inputs, not of the schedule, is what
    the trust argument rests on.
    """
    return hkdf(root_key_bytes, TENANT_LABEL + tenant_id.encode("utf-8"))


def derive_purpose_key(tenant_root, label):
    """A purpose key under one tenant root (audit, dataset, job...)."""
    return AeadKey(hkdf(tenant_root, label))


def derive_job_key(tenant_root, job_name):
    """The per-job sealing key handed to the map/reduce driver."""
    return hkdf(tenant_root, JOB_KEY_LABEL + job_name.encode("utf-8"))


def dataset_aad(tenant_id, name):
    """Associated data binding a sealed dataset to tenant and name."""
    return (
        b"svc|dataset|v1|" + tenant_id.encode("utf-8")
        + b"|" + name.encode("utf-8")
    )


class _TenantState:
    """One tenant's in-enclave state: derived keys plus the chain."""

    def __init__(self, root_key_bytes, tenant_id):
        self.tenant_id = tenant_id
        self.root = derive_tenant_root(root_key_bytes, tenant_id)
        self.audit_key = derive_purpose_key(self.root, AUDIT_KEY_LABEL)
        self.dataset_key = derive_purpose_key(self.root, DATASET_KEY_LABEL)
        self.chain = AuditChain(self.audit_key, tenant_id)


def _require(ctx):
    state = ctx.state.get("gateway")
    if state is None:
        raise ConfigurationError("gateway enclave is not set up")
    return state


def _tenant(ctx, tenant_id):
    state = _require(ctx)
    tenant = state["tenants"].get(tenant_id)
    if tenant is None:
        raise ConfigurationError("unknown tenant %r" % tenant_id)
    return tenant


def _seal_head(ctx, tenant):
    """Platform-seal one tenant's chain head for host storage."""
    payload = json.dumps(
        {"tenant": tenant.tenant_id, **tenant.chain.head_state()},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return ctx.seal(payload)


def gw_setup(ctx, root_key_bytes):
    """First bring-up: adopt the operator-released root, seal it.

    Returns the platform-sealed root blob; the host stores it and a
    crashed gateway restarts from it via :func:`gw_restore` without
    the operator releasing the key again.
    """
    ctx.compute(GATEWAY_SETUP_CYCLES)
    ctx.state["gateway"] = {
        "root": bytes(root_key_bytes),
        "tenants": {},
    }
    return ctx.seal(_ROOT_SEAL_PREFIX + bytes(root_key_bytes))


def gw_restore(ctx, sealed_root, sealed_heads):
    """Post-crash restart: unseal the root, re-derive, restore heads.

    ``sealed_heads`` maps tenant id to the latest platform-sealed head
    blob the host stored.  Key re-derivation is deterministic, so the
    restarted gateway continues every chain exactly where the sealed
    head says it stopped; a host feeding a stale head is caught at that
    tenant's next append (its position is past the head's count) and
    whenever the exported chain is verified.  Nothing is installed
    until every head has verified: a failed restore leaves no gateway.
    """
    ctx.compute(GATEWAY_SETUP_CYCLES)
    raw = ctx.unseal(sealed_root)
    if not raw.startswith(_ROOT_SEAL_PREFIX):
        raise IntegrityError("sealed gateway root has a foreign prefix")
    root = raw[len(_ROOT_SEAL_PREFIX):]
    state = {"root": root, "tenants": {}}
    for tenant_id, head_blob in sealed_heads.items():
        tenant = _TenantState(root, tenant_id)
        head = json.loads(ctx.unseal(head_blob).decode("utf-8"))
        if head.get("tenant") != tenant_id:
            raise IntegrityError(
                "sealed audit head belongs to tenant %r, not %r"
                % (head.get("tenant"), tenant_id)
            )
        tenant.chain.restore_head(head)
        state["tenants"][tenant_id] = tenant
    ctx.state["gateway"] = state
    return len(state["tenants"])


def gw_register_tenant(ctx, tenant_id, vtime):
    """Derive a fresh tenant's key set and open its audit chain.

    Returns ``(audit_blob, sealed_head)``; registration is idempotent
    (a replayed registration appends nothing).
    """
    state = _require(ctx)
    ctx.compute(TENANT_REGISTER_CYCLES)
    if tenant_id in state["tenants"]:
        tenant = state["tenants"][tenant_id]
        return None, _seal_head(ctx, tenant)
    tenant = _TenantState(state["root"], tenant_id)
    state["tenants"][tenant_id] = tenant
    blob = tenant.chain.append(
        vtime, "tenant.register", tenant_id, "ok"
    )
    return blob, _seal_head(ctx, tenant)


def gw_append_audit(ctx, tenant_id, position, vtime, action, resource,
                    outcome, detail=""):
    """Append one audited request outcome at chain ``position``.

    ``position`` is the chain length the door held when the request
    arrived.  Returns ``(audit_blob_or_None, sealed_head)`` -- ``None``
    when the chain is already past it (a replay through the retry
    substrate after a crash between append and acknowledgement).  A
    chain *behind* the position was restored from a stale sealed head
    and fails closed: nothing is appended.
    """
    tenant = _tenant(ctx, tenant_id)
    ctx.compute(AUDIT_APPEND_CYCLES)
    if tenant.chain.count < position:
        raise IntegrityError(
            "audit chain for %r is at %d, behind the host's position %d: "
            "stale sealed head" % (tenant_id, tenant.chain.count, position)
        )
    if tenant.chain.count > position:
        return None, _seal_head(ctx, tenant)
    blob = tenant.chain.append(vtime, action, resource, outcome, detail)
    return blob, _seal_head(ctx, tenant)


def gw_seal_dataset(ctx, tenant_id, name, records):
    """Seal a tenant's records under *their* dataset key.

    Large frames take the chunked ``SB2`` framing; the associated data
    binds tenant and dataset name, so a blob can never be opened as
    another tenant's -- or another dataset's -- data.
    """
    tenant = _tenant(ctx, tenant_id)
    records = [bytes(record) for record in records]
    ctx.compute(
        DATASET_SEAL_BASE_CYCLES
        + DATASET_SEAL_RECORD_CYCLES * len(records)
    )
    return tenant.dataset_key.seal_records(
        records, dataset_aad(tenant_id, name)
    )


def gw_open_dataset(ctx, tenant_id, name, blob):
    """Open a sealed dataset for in-boundary processing (job staging)."""
    tenant = _tenant(ctx, tenant_id)
    ctx.compute(DATASET_SEAL_BASE_CYCLES)
    return tenant.dataset_key.open_records(blob, dataset_aad(tenant_id, name))


def gw_job_key(ctx, tenant_id, job_name):
    """Mint the per-job sealing key for the map/reduce driver."""
    tenant = _tenant(ctx, tenant_id)
    ctx.compute(KEY_DERIVE_CYCLES)
    return derive_job_key(tenant.root, job_name)


def gw_audit_head(ctx, tenant_id):
    """The attested plaintext head: ``(count, head_hash_hex)``.

    A commitment, not a secret -- the operator verifies exported
    chains against it offline (the oracle models that operator).
    """
    tenant = _tenant(ctx, tenant_id)
    return tenant.chain.count, tenant.chain.head.hex()


def gw_verify_audit(ctx, tenant_id, blobs):
    """In-enclave verification of the host-stored chain.

    Fails closed if the host mutated, reordered, truncated, or spliced
    the stored blobs; returns the verified entry count.
    """
    tenant = _tenant(ctx, tenant_id)
    ctx.compute(AUDIT_APPEND_CYCLES * max(len(blobs), 1))
    entries = verify_chain(
        tenant.audit_key, tenant_id, blobs,
        tenant.chain.count, tenant.chain.head,
    )
    return len(entries)


def gw_key_fingerprints(ctx, tenant_id):
    """Public fingerprints of a tenant's keys (safe to log/receipt)."""
    tenant = _tenant(ctx, tenant_id)
    return {
        "audit": tenant.audit_key.fingerprint(),
        "dataset": tenant.dataset_key.fingerprint(),
    }


GATEWAY_CODE = EnclaveCode(
    "service-gateway",
    entry_points={
        "setup": gw_setup,
        "restore": gw_restore,
        "register_tenant": gw_register_tenant,
        "append_audit": gw_append_audit,
        "seal_dataset": gw_seal_dataset,
        "open_dataset": gw_open_dataset,
        "job_key": gw_job_key,
        "audit_head": gw_audit_head,
        "verify_audit": gw_verify_audit,
        "key_fingerprints": gw_key_fingerprints,
    },
    version=1,
)
