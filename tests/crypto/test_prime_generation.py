"""The prime generator: sieve, then a round count sized to the width.

``_is_probable_prime`` is the general test (40 rounds, any input);
``_generate_prime`` sieves its own uniformly random candidates and runs
the average-case round count on the survivors.  These tests hold the
two to the same verdicts and the round count to the published bound.
"""

import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.primitives import DeterministicRandomSource
from repro.crypto.rsa import (
    DEFAULT_KEY_BITS,
    RsaKeyPair,
    _SIEVE_BOUND,
    _generate_prime,
    _generation_rounds,
    _is_probable_prime,
    _miller_rabin,
)

PRIMES_ABOVE_SIEVE = (2003, 2011, 104723, 104729, (1 << 61) - 1, (1 << 127) - 1)

CRAFTED_COMPOSITES = (
    # Carmichael numbers: every coprime base is a Fermat liar.
    561, 41041, 825265,
    # Strong pseudoprimes to base 2 (the second also to 3, 5 and 7).
    2047, 3215031751,
    # Squares and semiprimes the sieve cannot see.
    *(p * p for p in PRIMES_ABOVE_SIEVE),
    *(p * q for p, q in zip(PRIMES_ABOVE_SIEVE, PRIMES_ABOVE_SIEVE[1:])),
)

KNOWN_PRIMES = (
    2, 3, 1999, *PRIMES_ABOVE_SIEVE, (1 << 255) - 19, (1 << 521) - 1,
)


def generation_verdict(candidate, source):
    """What the generation path would say about ``candidate``."""
    rounds = _generation_rounds(candidate.bit_length())
    return _miller_rabin(candidate, rounds, source)


def log2_average_case_bound(bits, rounds):
    """log2 of the Damgard-Landrock-Pomerance bound on p(bits, rounds).

    HAC Fact 4.48(ii): p(k, t) < k^(3/2) 2^t t^(-1/2) 4^(2 - sqrt(tk))
    for 3 <= t <= k/9, k >= 21 -- the probability that a uniformly
    random odd k-bit integer which passed t random-base rounds is
    composite.
    """
    assert 3 <= rounds <= bits / 9 and bits >= 21
    return (
        1.5 * math.log2(bits) + rounds - 0.5 * math.log2(rounds)
        + 2 * (2 - math.sqrt(rounds * bits))
    )


class TestRoundCount:
    def test_average_case_rounds_meet_the_worst_case_error(self):
        for bits in range(250, 4097):
            assert log2_average_case_bound(bits, _generation_rounds(bits)) <= -80

    def test_one_round_fewer_would_not(self):
        assert log2_average_case_bound(250, _generation_rounds(250) - 1) > -80

    def test_narrow_candidates_keep_the_worst_case_count(self):
        assert {_generation_rounds(bits) for bits in range(2, 250)} == {40}
        assert _generation_rounds(DEFAULT_KEY_BITS // 2) == 12

    def test_no_caller_can_choose_the_round_count(self):
        for function in (_generate_prime, _is_probable_prime, RsaKeyPair.generate):
            parameters = set(inspect.signature(function).parameters)
            assert parameters <= {"bits", "candidate", "random_source"}


class TestVerdicts:
    def test_crafted_composites_rejected_on_both_paths(self):
        source = DeterministicRandomSource(0)
        for composite in CRAFTED_COMPOSITES:
            assert not _is_probable_prime(composite, source), composite
            assert not generation_verdict(composite, source), composite

    def test_known_primes_accepted_on_both_paths(self):
        source = DeterministicRandomSource(0)
        for prime in KNOWN_PRIMES:
            assert _is_probable_prime(prime, source), prime
            assert generation_verdict(prime, source), prime

    def test_below_the_sieve_bound_the_verdict_is_exact(self):
        source = DeterministicRandomSource(0)
        for candidate in range(-3, _SIEVE_BOUND):
            expected = candidate >= 2 and all(
                candidate % divisor for divisor in range(2, math.isqrt(candidate) + 1)
            )
            assert _is_probable_prime(candidate, source) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(64, 512).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)
    ), st.integers(0, 2**32))
    def test_generation_path_agrees_with_the_general_test(self, value, seed):
        candidate = value | 1
        assert generation_verdict(
            candidate, DeterministicRandomSource(seed)
        ) == _is_probable_prime(candidate, DeterministicRandomSource(seed + 1))


class TestGeneratedPrimes:
    @pytest.mark.parametrize("bits", (64, 128, 249, 250, 256, 512))
    def test_outputs_are_odd_full_width_and_pass_the_general_test(self, bits):
        source = DeterministicRandomSource(bits)
        for _ in range(3):
            prime = _generate_prime(bits, source)
            assert prime % 2 == 1
            assert prime.bit_length() == bits
            assert _is_probable_prime(prime, DeterministicRandomSource(1))


class TestGeneratedKeys:
    def test_same_seed_same_key_different_seed_different_key(self):
        keys = [
            RsaKeyPair.generate(random_source=DeterministicRandomSource(seed))
            for seed in (7, 7, 8)
        ]
        assert keys[0].public_key == keys[1].public_key
        assert keys[0].sign(b"m") == keys[1].sign(b"m")
        assert keys[0].public_key != keys[2].public_key

    @pytest.mark.parametrize("bits", (128, 255, 512, 1024))
    def test_modulus_width(self, bits):
        key = RsaKeyPair.generate(bits, DeterministicRandomSource(bits))
        assert key.public_key.modulus.bit_length() in (bits - 1, bits)

    def test_default_width_is_the_one_in_use(self):
        key = RsaKeyPair.generate(random_source=DeterministicRandomSource(0))
        assert DEFAULT_KEY_BITS == 512
        assert key.public_key.modulus.bit_length() in (511, 512)

    def test_sign_verify_round_trip_on_twenty_seeds(self):
        for seed in range(20):
            key = RsaKeyPair.generate(random_source=DeterministicRandomSource(seed))
            message = b"message-%d" % seed
            signature = key.sign(message)
            key.public_key.verify(message, signature)
            assert not key.public_key.is_valid(message + b"!", signature)
