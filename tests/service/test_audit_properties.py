"""Property tests for the sealed audit hash chain.

The chain's whole job is to fail closed under a hostile host: any
mutation, reorder, truncation, or cross-tenant splice of the stored
blobs must surface as :class:`~repro.errors.IntegrityError` when the
chain is verified against its attested head.  Hypothesis drives those
four tamper families over randomly shaped chains, plus the round-trip
and determinism properties the benchmarks lean on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, IntegrityError
from repro.crypto.aead import AeadKey
from repro.service.gateway import GATEWAY_CODE
from repro.sgx.platform import SgxPlatform
from repro.service.audit import (
    MAX_DETAIL_BYTES,
    AuditChain,
    AuditEntry,
    chain_digest,
    genesis_hash,
    open_entry,
    seal_entry,
    verify_chain,
)

_KEY_A = AeadKey(b"\xa1" * 32)
_KEY_B = AeadKey(b"\xb2" * 32)

_actions = st.sampled_from(
    ["dataset.upload", "job.submit", "scbr.subscribe", "stream.round"]
)
_outcomes = st.sampled_from(["ok", "shed", "quota", "error"])
_details = st.text(max_size=64)

_entries = st.builds(
    lambda vtime, action, outcome, detail: (vtime, action, outcome, detail),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    _actions,
    _outcomes,
    _details,
)


def _build_chain(key, tenant_id, specs):
    chain = AuditChain(key, tenant_id)
    blobs = [
        chain.append(vtime, action, "res-%d" % i, outcome, detail)
        for i, (vtime, action, outcome, detail) in enumerate(specs)
    ]
    return chain, blobs


class TestChainProperties:
    @settings(max_examples=30)
    @given(st.lists(_entries, min_size=1, max_size=8))
    def test_round_trip(self, specs):
        chain, blobs = _build_chain(_KEY_A, "acme", specs)
        entries = verify_chain(
            _KEY_A, "acme", blobs, chain.count, chain.head
        )
        assert [e.action for e in entries] == [s[1] for s in specs]
        assert [e.outcome for e in entries] == [s[2] for s in specs]
        assert [e.seq for e in entries] == list(range(len(specs)))

    @settings(max_examples=30)
    @given(
        st.lists(_entries, min_size=1, max_size=8),
        st.data(),
    )
    def test_single_byte_mutation_fails_closed(self, specs, data):
        chain, blobs = _build_chain(_KEY_A, "acme", specs)
        index = data.draw(
            st.integers(min_value=0, max_value=len(blobs) - 1)
        )
        offset = data.draw(
            st.integers(min_value=0, max_value=len(blobs[index]) - 1)
        )
        tampered = list(blobs)
        tampered[index] = (
            tampered[index][:offset]
            + bytes([tampered[index][offset] ^ 0x01])
            + tampered[index][offset + 1:]
        )
        with pytest.raises(IntegrityError):
            verify_chain(_KEY_A, "acme", tampered, chain.count, chain.head)

    @settings(max_examples=30)
    @given(st.lists(_entries, min_size=2, max_size=8), st.data())
    def test_reorder_fails_closed(self, specs, data):
        chain, blobs = _build_chain(_KEY_A, "acme", specs)
        i = data.draw(st.integers(min_value=0, max_value=len(blobs) - 2))
        j = data.draw(
            st.integers(min_value=i + 1, max_value=len(blobs) - 1)
        )
        swapped = list(blobs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        with pytest.raises(IntegrityError):
            verify_chain(_KEY_A, "acme", swapped, chain.count, chain.head)

    @settings(max_examples=30)
    @given(st.lists(_entries, min_size=1, max_size=8), st.data())
    def test_truncation_fails_closed(self, specs, data):
        """Dropping any suffix is caught by the attested head, even
        though every surviving blob still verifies individually."""
        chain, blobs = _build_chain(_KEY_A, "acme", specs)
        keep = data.draw(
            st.integers(min_value=0, max_value=len(blobs) - 1)
        )
        truncated = blobs[:keep]
        with pytest.raises(IntegrityError):
            verify_chain(
                _KEY_A, "acme", truncated, chain.count, chain.head
            )
        # A host lying about the count to match its truncation is
        # still caught: the head hash covers the dropped suffix.
        if keep:
            with pytest.raises(IntegrityError):
                verify_chain(_KEY_A, "acme", truncated, keep, chain.head)

    @settings(max_examples=20)
    @given(
        st.lists(_entries, min_size=1, max_size=6),
        st.lists(_entries, min_size=1, max_size=6),
        st.data(),
    )
    def test_cross_tenant_splice_fails_closed(self, specs_a, specs_b,
                                              data):
        """Grafting tenant B's entries into tenant A's chain fails even
        when both chains are sealed under the *same* key -- the AAD
        (tenant id, position, prefix hash) alone refuses the splice."""
        chain_a, blobs_a = _build_chain(_KEY_A, "acme", specs_a)
        _chain_b, blobs_b = _build_chain(_KEY_A, "globex", specs_b)
        index = data.draw(
            st.integers(min_value=0, max_value=len(blobs_a) - 1)
        )
        donor = data.draw(
            st.integers(min_value=0, max_value=len(blobs_b) - 1)
        )
        spliced = list(blobs_a)
        spliced[index] = blobs_b[donor]
        with pytest.raises(IntegrityError):
            verify_chain(
                _KEY_A, "acme", spliced, chain_a.count, chain_a.head
            )

    @settings(max_examples=20)
    @given(st.lists(_entries, min_size=1, max_size=6))
    def test_foreign_key_fails_closed(self, specs):
        chain, blobs = _build_chain(_KEY_A, "acme", specs)
        with pytest.raises(IntegrityError):
            verify_chain(_KEY_B, "acme", blobs, chain.count, chain.head)

    @settings(max_examples=20)
    @given(st.lists(_entries, min_size=1, max_size=8))
    def test_deterministic_blobs(self, specs):
        """Same workload, same key -> byte-identical chains (what the
        chaos determinism gate relies on)."""
        _, blobs_1 = _build_chain(_KEY_A, "acme", specs)
        _, blobs_2 = _build_chain(_KEY_A, "acme", specs)
        assert blobs_1 == blobs_2
        assert chain_digest(blobs_1) == chain_digest(blobs_2)

    @settings(max_examples=20)
    @given(st.lists(_entries, min_size=1, max_size=8))
    def test_distinct_nonces(self, specs):
        """No two entries in a chain ever share a nonce (keystream
        reuse would break confidentiality outright)."""
        from repro.crypto.aead import Ciphertext

        _, blobs = _build_chain(_KEY_A, "acme", specs)
        nonces = [Ciphertext.from_bytes(b).nonce for b in blobs]
        assert len(set(nonces)) == len(nonces)


class TestEntryEdges:
    def test_empty_entry_round_trips(self):
        entry = AuditEntry(
            seq=0, vtime=0.0, action="", resource="", outcome="",
            detail="",
        )
        prev = genesis_hash("t")
        blob, head = seal_entry(_KEY_A, "t", entry, prev)
        opened, head_2 = open_entry(_KEY_A, "t", 0, prev, blob)
        assert opened == entry
        assert head == head_2

    def test_max_size_detail_round_trips(self):
        detail = "x" * MAX_DETAIL_BYTES
        entry = AuditEntry(
            seq=0, vtime=1.5, action="a", resource="r", outcome="ok",
            detail=detail,
        )
        prev = genesis_hash("t")
        blob, _head = seal_entry(_KEY_A, "t", entry, prev)
        opened, _ = open_entry(_KEY_A, "t", 0, prev, blob)
        assert opened.detail == detail

    def test_oversize_detail_rejected(self):
        entry = AuditEntry(
            seq=0, vtime=0.0, action="a", resource="r", outcome="ok",
            detail="x" * (MAX_DETAIL_BYTES + 1),
        )
        with pytest.raises(ConfigurationError):
            entry.canonical()

    def test_wrong_position_fails(self):
        entry = AuditEntry(
            seq=0, vtime=0.0, action="a", resource="r", outcome="ok"
        )
        prev = genesis_hash("t")
        blob, _ = seal_entry(_KEY_A, "t", entry, prev)
        with pytest.raises(IntegrityError):
            open_entry(_KEY_A, "t", 1, prev, blob)

    def test_malformed_canonical_fails_closed(self):
        with pytest.raises(IntegrityError):
            AuditEntry.from_canonical(b"not json at all")
        with pytest.raises(IntegrityError):
            AuditEntry.from_canonical(b'{"seq": 0}')

    def test_head_state_round_trip(self):
        chain = AuditChain(_KEY_A, "acme")
        chain.append(0.0, "a", "r", "ok")
        state = chain.head_state()
        assert sorted(state) == ["count", "head"]
        restored = AuditChain(_KEY_A, "acme")
        restored.restore_head(state)
        assert restored.count == chain.count
        assert restored.head == chain.head
        assert restored.head_state() == state

    def test_empty_chain_verifies(self):
        chain = AuditChain(_KEY_A, "acme")
        assert verify_chain(
            _KEY_A, "acme", [], chain.count, chain.head
        ) == []


_PLATFORM = SgxPlatform(seed=97, quoting_key_bits=512)
_ROOT = b"\x5e" * 32


def _gateway(specs, tenants=("acme",)):
    """A gateway with ``specs`` appended to every tenant's chain the
    way the door does it: each append names the position it expects.
    Returns the enclave, its sealed root, and the host's store."""
    gateway = _PLATFORM.load_enclave(GATEWAY_CODE)
    sealed_root = gateway.ecall("setup", _ROOT)
    blobs, heads = {}, {}
    for tenant in tenants:
        blob, heads[tenant] = gateway.ecall("register_tenant", tenant, 0.0)
        blobs[tenant] = [blob]
        for vtime, action, outcome, detail in specs:
            blob, heads[tenant] = gateway.ecall(
                "append_audit", tenant, len(blobs[tenant]), vtime,
                action, "res", outcome, detail,
            )
            blobs[tenant].append(blob)
    return gateway, sealed_root, blobs, heads


class TestPositionDedupe:
    """The chain position is the exactly-once state: a restarted
    gateway needs the sealed root and the sealed heads, nothing else."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_entries, max_size=6))
    def test_honest_head_restores_and_dedupes(self, specs):
        gateway, sealed_root, blobs, heads = _gateway(specs)
        head_before = gateway.ecall("audit_head", "acme")
        fresh = _PLATFORM.load_enclave(GATEWAY_CODE)
        assert fresh.ecall("restore", sealed_root, heads) == 1
        assert fresh.ecall("audit_head", "acme") == head_before
        # Replaying any recorded position appends nothing ...
        for position in range(len(blobs["acme"])):
            blob, _head = fresh.ecall(
                "append_audit", "acme", position, 0.0, "a", "r", "ok"
            )
            assert blob is None
        assert fresh.ecall("audit_head", "acme") == head_before
        # ... and the next position continues the very same chain.
        blob, _head = fresh.ecall(
            "append_audit", "acme", len(blobs["acme"]), 1.0, "a", "r", "ok"
        )
        assert fresh.ecall(
            "verify_audit", "acme", blobs["acme"] + [blob]
        ) == len(blobs["acme"]) + 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_entries, min_size=1, max_size=6), st.data())
    def test_stale_head_fails_closed_at_the_next_append(self, specs, data):
        """A host that restores from an older sealed head is caught by
        the first append: its position is past the stale count."""
        _gw, sealed_root, blobs, _heads = _gateway(specs)
        behind = data.draw(
            st.integers(min_value=1, max_value=len(specs)), label="behind"
        )
        # Same platform, root and prefix: exactly the head the host
        # stored ``behind`` appends ago.
        _old, _root, _blobs, stale_heads = _gateway(
            specs[:len(specs) - behind]
        )
        fresh = _PLATFORM.load_enclave(GATEWAY_CODE)
        fresh.ecall("restore", sealed_root, stale_heads)
        head_before = fresh.ecall("audit_head", "acme")
        with pytest.raises(IntegrityError):
            fresh.ecall(
                "append_audit", "acme", len(blobs["acme"]), 1.0,
                "a", "r", "ok",
            )
        assert fresh.ecall("audit_head", "acme") == head_before

    def test_sealed_head_is_tenant_bound(self):
        """Two tenants with identical histories still seal different
        heads: a head cannot move between tenants."""
        _gw, sealed_root, _blobs, heads = _gateway(
            [(0.0, "a", "ok", "")], tenants=("acme", "globex")
        )
        fresh = _PLATFORM.load_enclave(GATEWAY_CODE)
        with pytest.raises(IntegrityError):
            fresh.ecall("restore", sealed_root, {"acme": heads["globex"]})
