"""Tests for Diffie-Hellman key agreement."""

import pytest

from repro.crypto.dh import DH_PRIME, DhKeyPair
from repro.crypto.primitives import DeterministicRandomSource
from repro.errors import IntegrityError


class TestDh:
    def test_shared_key_agreement(self):
        a = DhKeyPair.generate(DeterministicRandomSource(1))
        b = DhKeyPair.generate(DeterministicRandomSource(2))
        assert a.shared_key(b.public_value) == b.shared_key(a.public_value)

    def test_shared_key_length(self):
        a = DhKeyPair.generate(DeterministicRandomSource(1))
        b = DhKeyPair.generate(DeterministicRandomSource(2))
        assert len(a.shared_key(b.public_value)) == 32

    def test_different_peers_different_keys(self):
        a = DhKeyPair.generate(DeterministicRandomSource(1))
        b = DhKeyPair.generate(DeterministicRandomSource(2))
        c = DhKeyPair.generate(DeterministicRandomSource(3))
        assert a.shared_key(b.public_value) != a.shared_key(c.public_value)

    def test_info_separates_derivations(self):
        a = DhKeyPair.generate(DeterministicRandomSource(1))
        b = DhKeyPair.generate(DeterministicRandomSource(2))
        assert a.shared_key(b.public_value, info=b"x") != a.shared_key(
            b.public_value, info=b"y"
        )

    def test_invalid_private_value(self):
        with pytest.raises(ValueError):
            DhKeyPair(1)
        with pytest.raises(ValueError):
            DhKeyPair(DH_PRIME - 1)
        with pytest.raises(ValueError):
            DhKeyPair((1 << 256) + 2)  # beyond what generate() draws

    def test_invalid_peer_value_rejected(self):
        a = DhKeyPair.generate(DeterministicRandomSource(1))
        for peer in (0, 1, DH_PRIME - 1, DH_PRIME, -2, True, b"junk", 5.0,
                     None):
            with pytest.raises(IntegrityError):
                a.shared_key(peer)

    def test_public_value_in_group(self):
        a = DhKeyPair.generate(DeterministicRandomSource(1))
        assert 1 < a.public_value < DH_PRIME - 1
