"""Property tests on SGX-layer invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError
from repro.sgx.attestation import Quote
from repro.sgx.sealing import (
    SealedBlob,
    SealingPolicy,
    derive_sealing_key,
    seal_with,
    unseal_with,
)


def _key(secret, policy, measurement="m" * 64, signer="signer"):
    """The sealing key an enclave derives: its measurement's under
    MRENCLAVE, its signer's under MRSIGNER."""
    identity = measurement if policy is SealingPolicy.MRENCLAVE else signer
    return derive_sealing_key(secret, identity, policy)


class TestSealingProperties:
    @given(
        st.binary(max_size=512),
        st.sampled_from(list(SealingPolicy)),
    )
    def test_seal_unseal_round_trip(self, data, policy):
        key = _key(b"\x01" * 32, policy)
        blob = seal_with(key, data, policy)
        assert unseal_with(_key(b"\x01" * 32, blob.policy), blob) == data

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    def test_different_platforms_never_share_keys(self, secret_a, secret_b):
        if secret_a == secret_b:
            return
        key_a = derive_sealing_key(secret_a, "m", SealingPolicy.MRENCLAVE)
        key_b = derive_sealing_key(secret_b, "m", SealingPolicy.MRENCLAVE)
        assert key_a != key_b

    @given(st.binary(max_size=128))
    def test_policy_confusion_rejected(self, data):
        """A blob sealed under MRENCLAVE cannot be opened as MRSIGNER
        even when measurement and signer strings collide."""
        identity = "same-string"
        blob = seal_with(
            _key(b"\x02" * 32, SealingPolicy.MRENCLAVE, identity, identity),
            data, SealingPolicy.MRENCLAVE,
        )
        relabeled = SealedBlob(policy=SealingPolicy.MRSIGNER,
                               ciphertext=blob.ciphertext)
        with pytest.raises(IntegrityError):
            unseal_with(
                _key(b"\x02" * 32, relabeled.policy, identity, identity),
                relabeled,
            )

    @given(st.binary(max_size=256), st.sampled_from(list(SealingPolicy)))
    def test_blob_serialisation_round_trip(self, data, policy):
        blob = seal_with(_key(b"\x03" * 32, policy), data, policy)
        parsed = SealedBlob.from_bytes(blob.to_bytes())
        assert unseal_with(_key(b"\x03" * 32, parsed.policy), parsed) == data


class TestQuoteProperties:
    @settings(max_examples=40)
    @given(
        st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=40,
        ),
        st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
        st.binary(max_size=128),
        st.integers(min_value=0, max_value=2**256),
    )
    def test_quote_serialisation_round_trip(self, platform_id, measurement,
                                            report_data, signature):
        quote = Quote(
            platform_id=platform_id,
            measurement=measurement,
            report_data=report_data,
            signature=signature,
        )
        assert Quote.from_bytes(quote.to_bytes()) == quote

    @given(st.binary(max_size=64), st.integers(0, 63))
    def test_truncated_quotes_never_parse_silently(self, junk, cut):
        quote = Quote("p", "m" * 64, junk, 12345)
        raw = quote.to_bytes()
        if cut >= len(raw):
            return
        try:
            parsed = Quote.from_bytes(raw[:cut])
        except IntegrityError:
            return
        # If it parsed, it must not equal the original (no ambiguity).
        assert parsed != quote
