"""Tests for RSA signatures."""

import pytest

from repro.errors import IntegrityError
from repro.crypto.primitives import DeterministicRandomSource
from repro.crypto.rsa import RsaKeyPair, _is_probable_prime


def small_keypair(seed=0):
    return RsaKeyPair.generate(bits=512, random_source=DeterministicRandomSource(seed))


@pytest.fixture(scope="module")
def keypair():
    return small_keypair()


class TestSignatures:
    def test_sign_verify_round_trip(self, keypair):
        signature = keypair.sign(b"message")
        keypair.public_key.verify(b"message", signature)

    def test_wrong_message_rejected(self, keypair):
        signature = keypair.sign(b"message")
        with pytest.raises(IntegrityError):
            keypair.public_key.verify(b"other", signature)

    def test_wrong_key_rejected(self, keypair):
        other = small_keypair(seed=99)
        signature = keypair.sign(b"message")
        with pytest.raises(IntegrityError):
            other.public_key.verify(b"message", signature)

    def test_signature_deterministic(self, keypair):
        assert keypair.sign(b"m") == keypair.sign(b"m")

    def test_out_of_range_signature_rejected(self, keypair):
        with pytest.raises(IntegrityError):
            keypair.public_key.verify(b"m", 0)
        with pytest.raises(IntegrityError):
            keypair.public_key.verify(b"m", keypair.public_key.modulus)

    def test_is_valid_boolean_form(self, keypair):
        signature = keypair.sign(b"m")
        assert keypair.public_key.is_valid(b"m", signature)
        assert not keypair.public_key.is_valid(b"n", signature)


class TestKeyGeneration:
    def test_modulus_width(self, keypair):
        assert keypair.public_key.modulus.bit_length() >= 511

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            RsaKeyPair.generate(bits=64)

    def test_deterministic_generation(self):
        a = small_keypair(7)
        b = small_keypair(7)
        assert a.public_key == b.public_key


class TestMillerRabin:
    def test_known_primes(self):
        source = DeterministicRandomSource(0)
        for prime in (2, 3, 5, 104729, (1 << 61) - 1):
            assert _is_probable_prime(prime, source)

    def test_known_composites(self):
        source = DeterministicRandomSource(0)
        for composite in (0, 1, 4, 561, 104729 * 104723):
            assert not _is_probable_prime(composite, source)
