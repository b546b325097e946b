"""The two fixed-parameter modexps equal the general ones, bit for bit.

``DhKeyPair`` raises the fixed generator through a comb table and
``RsaKeyPair.sign`` exponentiates on the factors (CRT).  Both must give
exactly what ``pow`` gives over the whole accepted input range
(``test_public_key_vectors.py`` pins the bytes themselves).
"""

from hypothesis import given, settings, strategies as st

from repro.crypto.dh import (
    DH_GENERATOR,
    DH_PRIME,
    DhKeyPair,
    _COMB_BITS,
    _COMB_ROWS,
    _MAX_PRIVATE,
    _generator_power,
)
from repro.crypto.primitives import DeterministicRandomSource
from repro.crypto.rsa import RsaKeyPair, _full_domain_hash

_DIGIT = (1 << _COMB_BITS) - 1

# Edges of [2, 2^256 + 1]: both ends, every digit all-ones, and one
# nonzero digit alone in each row of the comb.
EDGE_EXPONENTS = (
    [2, 3, _MAX_PRIVATE, _MAX_PRIVATE - 1, (1 << 256) - 1, 1 << 256]
    + [digit << (_COMB_BITS * row)
       for row in range(_COMB_ROWS) for digit in (1, _DIGIT)
       if 2 <= digit << (_COMB_BITS * row) <= _MAX_PRIVATE]
)


def _from_digits(digits):
    return sum(d << (_COMB_BITS * row) for row, d in enumerate(digits))


# Digit vectors below the top row (which holds only 2^256): sparse,
# dense and all-ones digits turn up far more often than under a
# uniform draw.
DIGIT_VECTORS = st.lists(
    st.sampled_from([0, 0, 0, 1, _DIGIT, 8]) | st.integers(0, _DIGIT),
    min_size=_COMB_ROWS - 1, max_size=_COMB_ROWS - 1,
).map(_from_digits).filter(lambda x: x >= 2)


def _private_exponent(keypair):
    phi = (keypair._p - 1) * (keypair._q - 1)
    return pow(keypair.public_key.exponent, -1, phi)


class TestGeneratorComb:
    def test_edges_equal_pow(self):
        for exponent in EDGE_EXPONENTS:
            assert _generator_power(exponent) == pow(
                DH_GENERATOR, exponent, DH_PRIME
            ), hex(exponent)

    def test_every_row_is_reached(self):
        assert _MAX_PRIVATE.bit_length() > _COMB_BITS * (_COMB_ROWS - 1)

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=_MAX_PRIVATE) | DIGIT_VECTORS)
    def test_comb_equals_pow(self, exponent):
        assert DhKeyPair(exponent).public_value == pow(
            DH_GENERATOR, exponent, DH_PRIME
        )


class TestCrtSigning:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 16),
           st.binary(max_size=64))
    def test_crt_equals_full_width_pow(self, seed, message):
        keypair = RsaKeyPair.generate(
            512, random_source=DeterministicRandomSource(seed)
        )
        modulus = keypair.public_key.modulus
        signature = keypair.sign(message)
        assert signature == pow(
            _full_domain_hash(message, modulus),
            _private_exponent(keypair), modulus,
        )
        keypair.public_key.verify(message, signature)
