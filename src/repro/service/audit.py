"""Sealed append-only audit trail: a per-tenant AEAD hash chain.

Every request a tenant makes through the front door leaves exactly one
entry in that tenant's audit chain, sealed *inside the gateway enclave*
under the tenant's audit key.  The host stores and forwards opaque
blobs -- like sealed telemetry snapshots, the observability channel
must not become an integrity hole:

- each entry's associated data binds the tenant id, the entry's
  sequence number, and the hash of everything before it, so an entry
  can neither be moved to another position nor grafted into another
  tenant's chain (splice fails the AEAD tag);
- the chain head is a running ``sha256(prev_hash || entry)``; the
  enclave keeps ``(count, head_hash)`` and attests it on export, so
  dropping a suffix (or the whole chain) is caught even though every
  remaining blob still verifies individually -- truncation fails
  closed;
- entry nonces are derived from the key, position, previous hash, and
  the entry digest, so two same-seed runs of a deterministic workload
  produce *byte-identical* chains (the chaos determinism gate diffs
  them) without ever reusing a keystream on distinct plaintexts.

Verification is pure: :func:`verify_chain` needs only the tenant's
audit key, the blobs, and the attested head -- the conformance oracle
(tests/service/oracle.py) runs it offline against independently derived
keys.
"""

import json
from dataclasses import dataclass

from repro.errors import ConfigurationError, IntegrityError
from repro.crypto.aead import NONCE_SIZE
from repro.crypto.kdf import hkdf
from repro.crypto.primitives import sha256

AUDIT_DOMAIN = b"svc|audit|v1"
_NONCE_LABEL = b"svc|audit|nonce|"

# An entry's free-form detail is bounded so a single request can never
# balloon the sealed trail (and so round-trip property tests have a
# defined "max-size entry" to exercise).
MAX_DETAIL_BYTES = 4096


@dataclass(frozen=True)
class AuditEntry:
    """One audited request: who did what to which resource, and how it
    ended (``ok``, ``shed``, ``quota``, or ``error``)."""

    seq: int
    vtime: float
    action: str
    resource: str
    outcome: str
    detail: str = ""

    def canonical(self):
        """The exact bytes that are sealed and hashed into the chain."""
        if len(self.detail.encode("utf-8")) > MAX_DETAIL_BYTES:
            raise ConfigurationError(
                "audit detail exceeds %d bytes" % MAX_DETAIL_BYTES
            )
        return json.dumps(
            {
                "seq": self.seq,
                "vtime": self.vtime,
                "action": self.action,
                "resource": self.resource,
                "outcome": self.outcome,
                "detail": self.detail,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def from_canonical(cls, raw):
        """Parse canonical bytes back into an entry (fails closed)."""
        try:
            fields = json.loads(raw.decode("utf-8"))
            return cls(
                seq=int(fields["seq"]),
                vtime=float(fields["vtime"]),
                action=str(fields["action"]),
                resource=str(fields["resource"]),
                outcome=str(fields["outcome"]),
                detail=str(fields["detail"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise IntegrityError("malformed audit entry") from exc


def genesis_hash(tenant_id):
    """Each tenant's chain starts from its own genesis: two tenants'
    chains can never share a prefix, so whole-chain substitution is as
    detectable as a mid-chain splice."""
    return sha256(AUDIT_DOMAIN + b"|genesis|" + tenant_id.encode("utf-8"))


def entry_aad(tenant_id, seq, prev_hash):
    """Associated data binding an entry to tenant, position, and past."""
    return (
        AUDIT_DOMAIN + b"|" + tenant_id.encode("utf-8") + b"|"
        + seq.to_bytes(8, "big") + b"|" + prev_hash
    )


def _entry_nonce(key, tenant_id, seq, prev_hash, raw):
    # Deterministic but collision-free: the nonce is a function of the
    # key, the chain position, the entire prefix (through prev_hash),
    # and the entry content itself, so identical workloads reproduce
    # identical blobs while distinct plaintexts never share a keystream.
    return hkdf(
        key.key_bytes,
        _NONCE_LABEL + tenant_id.encode("utf-8")
        + seq.to_bytes(8, "big") + prev_hash + sha256(raw),
        length=NONCE_SIZE,
    )


def seal_entry(key, tenant_id, entry, prev_hash):
    """Seal one entry onto the chain; returns ``(blob, new_head)``."""
    raw = entry.canonical()
    blob = key.seal(
        raw,
        entry_aad(tenant_id, entry.seq, prev_hash),
        nonce=_entry_nonce(key, tenant_id, entry.seq, prev_hash, raw),
    )
    return blob, sha256(prev_hash + raw)


def open_entry(key, tenant_id, seq, prev_hash, blob):
    """Open the entry at ``seq``; returns ``(entry, new_head)``.

    Any mutation of the blob, a wrong position, a wrong predecessor, or
    a foreign tenant's entry fails the AEAD tag.
    """
    raw = key.open(
        blob, entry_aad(tenant_id, seq, prev_hash),
        what="audit entry %d of tenant %r" % (seq, tenant_id),
    )
    entry = AuditEntry.from_canonical(raw)
    if entry.seq != seq:
        raise IntegrityError("audit entry sequence mismatch")
    return entry, sha256(prev_hash + raw)


def verify_chain(key, tenant_id, blobs, count, head_hash):
    """Verify a whole exported chain against its attested head.

    Returns the decoded entries.  Raises :class:`IntegrityError` on any
    single-entry mutation, reorder, truncation (the attested ``count``
    and ``head_hash`` no longer match), or splice of another tenant's
    entries.
    """
    blobs = list(blobs)
    if len(blobs) != count:
        raise IntegrityError(
            "audit chain for %r has %d entries, head attests %d"
            % (tenant_id, len(blobs), count)
        )
    prev = genesis_hash(tenant_id)
    entries = []
    for seq, blob in enumerate(blobs):
        entry, prev = open_entry(key, tenant_id, seq, prev, blob)
        entries.append(entry)
    if prev != head_hash:
        raise IntegrityError(
            "audit chain head mismatch for tenant %r" % tenant_id
        )
    return entries


def chain_digest(blobs):
    """One hex digest over the sealed wire bytes of a whole chain.

    Benchmarks put this in their result rows, so the chaos determinism
    gate (two same-seed runs must produce identical rows) transitively
    pins the audit trail byte-for-byte.
    """
    ctx = b"".join(
        len(blob).to_bytes(4, "big") + bytes(blob) for blob in blobs
    )
    return sha256(AUDIT_DOMAIN + b"|digest|" + ctx).hex()


class AuditChain:
    """The in-enclave, append-only side of one tenant's trail.

    Lives in the gateway enclave's state; the host receives each sealed
    blob for storage but can neither read nor reorder them.  The chain
    position is also the exactly-once state: the door serves one
    request at a time and each request appends at most one entry, so a
    request replayed after an enclave crash names the position it was
    offered at and the gateway appends only if the chain is still
    there (``gw_append_audit``).
    """

    def __init__(self, key, tenant_id):
        self.key = key
        self.tenant_id = tenant_id
        self.count = 0
        self.head = genesis_hash(tenant_id)

    def append(self, vtime, action, resource, outcome, detail=""):
        """Seal the next entry; returns its blob."""
        entry = AuditEntry(
            seq=self.count, vtime=vtime, action=action,
            resource=resource, outcome=outcome, detail=detail,
        )
        blob, self.head = seal_entry(
            self.key, self.tenant_id, entry, self.head
        )
        self.count += 1
        return blob

    def head_state(self):
        """The serialisable head: constant-size, whatever the history."""
        return {"count": self.count, "head": self.head.hex()}

    def restore_head(self, state):
        """Adopt a previously sealed head (post-crash recovery)."""
        self.count = int(state["count"])
        self.head = bytes.fromhex(state["head"])
