"""Finite-field Diffie-Hellman key agreement (RFC 3526 group 14)."""

import functools

from repro.errors import IntegrityError
from repro.crypto.kdf import hkdf
from repro.crypto.primitives import SystemRandomSource

# RFC 3526, 2048-bit MODP group.
DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
DH_GENERATOR = 2
_PRIME_BYTES = (DH_PRIME.bit_length() + 7) // 8
_SECRET_BITS = 256
# generate() draws 2 + randbits(256); no other private value is accepted.
_MAX_PRIVATE = (1 << _SECRET_BITS) + 1

# Fixed-base comb for DH_GENERATOR: row i holds g^(d * 16^i) mod p for
# every 4-bit digit d, so g^x is one modular product per nonzero digit
# of x and no squaring (DESIGN section 14, "Fixed-parameter modexps").
_COMB_BITS = 4
_COMB_ROWS = -(-_MAX_PRIVATE.bit_length() // _COMB_BITS)
_COMB_MASK = (1 << _COMB_BITS) - 1


@functools.cache
def _generator_comb():
    """The comb table, built on first use (65 x 16 residues, ~0.3 MiB)."""
    table = []
    base = DH_GENERATOR  # g^(16^i) for the row being built
    for _ in range(_COMB_ROWS):
        row = [1]
        for _ in range(_COMB_MASK):
            row.append(row[-1] * base % DH_PRIME)
        table.append(row)
        base = row[-1] * base % DH_PRIME
    return table


def _generator_power(exponent):
    """``pow(DH_GENERATOR, exponent, DH_PRIME)`` for 0 <= exponent <=
    _MAX_PRIVATE, read off the comb."""
    result = 1
    for row in _generator_comb():
        digit = exponent & _COMB_MASK
        if digit:
            result = result * row[digit] % DH_PRIME
        exponent >>= _COMB_BITS
    return result


def peer_value(value):
    """``value`` if it can be a peer's public value.

    A peer value is host-supplied: anything but an ``int`` in
    (1, p - 1) -- a ``bool`` included -- raises :class:`IntegrityError`.
    """
    if type(value) is not int or not 1 < value < DH_PRIME - 1:
        raise IntegrityError("peer DH public value rejected")
    return value


class DhKeyPair:
    """An ephemeral Diffie-Hellman key pair.

    >>> a, b = DhKeyPair.generate(), DhKeyPair.generate()
    >>> a.shared_key(b.public_value) == b.shared_key(a.public_value)
    True
    """

    def __init__(self, private_value):
        if not 2 <= private_value <= _MAX_PRIVATE:
            raise ValueError("private value out of range")
        self._private = private_value
        self.public_value = _generator_power(private_value)

    @classmethod
    def generate(cls, random_source=None):
        """Draw a fresh ephemeral key pair."""
        source = random_source or SystemRandomSource()
        private = 2 + source.randbits(_SECRET_BITS)
        return cls(private)

    def shared_key(self, peer_public_value, info=b"securecloud-dh"):
        """Derive the 32-byte shared key with a peer's public value,
        checked by :func:`peer_value` before any exponentiation."""
        secret = pow(peer_value(peer_public_value), self._private, DH_PRIME)
        return hkdf(secret.to_bytes(_PRIME_BYTES, "big"), info, length=32)
