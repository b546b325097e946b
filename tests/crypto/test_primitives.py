"""Tests for hash/MAC/keystream primitives."""

import pytest
from hypothesis import given, strategies as st

import hashlib
import hmac

from repro.crypto.primitives import (
    DeterministicRandomSource,
    SystemRandomSource,
    constant_time_equal,
    hmac_digest,
    hmac_pads,
    hmac_sha256,
    keystream,
    keystream_xor,
    sha256,
    sha256_hex,
    xof_keystream,
    xof_keystream_xor,
    xor_bytes,
)


class TestHashes:
    def test_sha256_known_vector(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_sha256_length(self):
        assert len(sha256(b"data")) == 32

    def test_hmac_differs_by_key(self):
        assert hmac_sha256(b"k1", b"m") != hmac_sha256(b"k2", b"m")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")


class TestKeystream:
    def test_deterministic(self):
        assert keystream(b"k", b"n", 100) == keystream(b"k", b"n", 100)

    def test_nonce_sensitivity(self):
        assert keystream(b"k", b"n1", 64) != keystream(b"k", b"n2", 64)

    def test_prefix_property(self):
        long = keystream(b"k", b"n", 100)
        short = keystream(b"k", b"n", 40)
        assert long[:40] == short

    def test_zero_length(self):
        assert keystream(b"k", b"n", 0) == b""

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            keystream(b"k", b"n", -1)

    @given(st.binary(max_size=256))
    def test_xor_involution(self, data):
        stream = keystream(b"key", b"nonce", len(data))
        assert xor_bytes(xor_bytes(data, stream), stream) == data

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"a")

    def test_matches_seed_construction(self):
        """The optimised keystream is byte-identical to HMAC(key, nonce||i)."""
        key, nonce = b"compat-key", b"compat-nonce"
        blocks = [
            hmac.new(
                key, nonce + counter.to_bytes(8, "big"), hashlib.sha256
            ).digest()
            for counter in range(4)
        ]
        assert keystream(key, nonce, 100) == b"".join(blocks)[:100]

    @given(st.integers(0, 300), st.integers(0, 300))
    def test_prefix_property_holds_for_any_lengths(self, a, b):
        a, b = min(a, b), max(a, b)
        assert keystream(b"k", b"n", a) == keystream(b"k", b"n", b)[:a]

    @given(st.binary(max_size=512))
    def test_keystream_xor_fused_equals_unfused(self, data):
        fused = keystream_xor(b"k", b"n", data)
        assert fused == xor_bytes(data, keystream(b"k", b"n", len(data)))
        assert keystream_xor(b"k", b"n", fused) == data


class TestXofKeystream:
    def test_deterministic(self):
        assert xof_keystream(b"k", b"n", 100) == xof_keystream(b"k", b"n", 100)

    def test_key_and_nonce_sensitivity(self):
        assert xof_keystream(b"k1", b"n", 64) != xof_keystream(b"k2", b"n", 64)
        assert xof_keystream(b"k", b"n1", 64) != xof_keystream(b"k", b"n2", 64)

    def test_differs_from_hmac_ctr(self):
        assert xof_keystream(b"k", b"n", 64) != keystream(b"k", b"n", 64)

    @given(st.integers(0, 300), st.integers(0, 300))
    def test_prefix_property(self, a, b):
        a, b = min(a, b), max(a, b)
        assert xof_keystream(b"k", b"n", a) == xof_keystream(b"k", b"n", b)[:a]

    def test_zero_length(self):
        assert xof_keystream(b"k", b"n", 0) == b""

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            xof_keystream(b"k", b"n", -1)

    @given(st.binary(max_size=512))
    def test_xor_involution(self, data):
        once = xof_keystream_xor(b"key", b"nonce", data)
        assert xof_keystream_xor(b"key", b"nonce", once) == data

    def test_key_length_framed(self):
        """key||nonce boundary is unambiguous (no concatenation aliasing)."""
        assert xof_keystream(b"ab", b"c", 32) != xof_keystream(b"a", b"bc", 32)


class TestHmacContext:
    def test_copy_equals_fresh_hmac(self):
        pads = hmac_pads(b"secret")
        for message in (b"", b"a", b"hello world" * 10):
            assert hmac_digest(pads, message) == hmac_sha256(b"secret", message)


class TestRandomSources:
    def test_system_source_lengths(self):
        source = SystemRandomSource()
        assert len(source.bytes(16)) == 16
        assert source.randbits(12) < 2**12

    def test_deterministic_source_reproducible(self):
        assert (
            DeterministicRandomSource(5).bytes(32)
            == DeterministicRandomSource(5).bytes(32)
        )

    def test_deterministic_source_seed_matters(self):
        assert (
            DeterministicRandomSource(1).bytes(32)
            != DeterministicRandomSource(2).bytes(32)
        )

    def test_deterministic_zero_bytes(self):
        assert DeterministicRandomSource(1).bytes(0) == b""
