"""RSA signatures with full-domain hashing.

Used for enclave quotes (the quoting enclave's attestation key), image
signing, and channel authentication.  Keys are ``DEFAULT_KEY_BITS`` wide
unless a caller asks otherwise: a simulation's identities, sized so that
generation stays fast in pure Python, not for deployment.

Key generation draws uniformly random odd candidates, rejects those
with a prime factor below ``_SIEVE_BOUND`` by one gcd, and runs
random-base Miller-Rabin on the survivors.  40 rounds bound the error
on *any* input by 4^-40 = 2^-80 and :func:`_is_probable_prime` always
runs them.  A candidate drawn uniformly from the odd k-bit integers
needs fewer for the same 2^-80 (Damgard, Landrock, Pomerance, Math.
Comp. 61, 1993; HAC Table 4.4; FIPS 186-4 C.3): 12 from 250 bits up,
which is what :func:`_generate_prime` runs on its own candidates.  The
count is a function of the width alone; no caller can choose it
(DESIGN section 14).

Signing applies a full-domain hash: the message digest is expanded with
HKDF-style blocks to the modulus width before exponentiation, so the
scheme is deterministic and existentially unforgeable under the usual
FDH assumptions (adequate for a simulation; not hardened).
"""

import math
from dataclasses import dataclass

from repro.errors import IntegrityError
from repro.crypto.primitives import SystemRandomSource, hmac_sha256, sha256

DEFAULT_KEY_BITS = 512

_WORST_CASE_ROUNDS = 40
_AVERAGE_CASE_MIN_BITS = 250
_AVERAGE_CASE_ROUNDS = 12
_FDH_LABEL = b"securecloud-rsa-fdh"


def _primes_below(bound):
    is_prime = bytearray([1]) * bound
    is_prime[:2] = b"\0\0"
    for n in range(2, math.isqrt(bound) + 1):
        if is_prime[n]:
            is_prime[n * n::n] = bytes(len(range(n * n, bound, n)))
    return frozenset(n for n in range(bound) if is_prime[n])


_SIEVE_BOUND = 2000
_SIEVE_PRIMES = _primes_below(_SIEVE_BOUND)
_SIEVE_PRODUCT = math.prod(_SIEVE_PRIMES)


def _random_base(candidate, random_source):
    """A Miller-Rabin base uniform on [2, candidate - 2]."""
    bits = candidate.bit_length()
    while True:
        base = random_source.randbits(bits)
        if 2 <= base <= candidate - 2:
            return base


def _miller_rabin(candidate, rounds, random_source):
    """Sieve ``candidate``, then run ``rounds`` random-base rounds."""
    if candidate < _SIEVE_BOUND:
        return candidate in _SIEVE_PRIMES
    if math.gcd(candidate, _SIEVE_PRODUCT) != 1:
        return False
    # Write candidate-1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        x = pow(_random_base(candidate, random_source), d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _is_probable_prime(candidate, random_source):
    """Primality of an arbitrary integer, wrong with probability <= 2^-80."""
    return _miller_rabin(candidate, _WORST_CASE_ROUNDS, random_source)


def _generation_rounds(bits):
    """Rounds that hold a uniformly random ``bits``-wide odd candidate
    to 2^-80."""
    if bits >= _AVERAGE_CASE_MIN_BITS:
        return _AVERAGE_CASE_ROUNDS
    return _WORST_CASE_ROUNDS


def _generate_prime(bits, random_source):
    rounds = _generation_rounds(bits)
    while True:
        candidate = random_source.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # full width, odd
        if _miller_rabin(candidate, rounds, random_source):
            return candidate


def _full_domain_hash(message, modulus):
    """Hash ``message`` to an integer in [1, modulus)."""
    width = (modulus.bit_length() + 7) // 8
    digest = sha256(message)
    blocks = []
    produced = 0
    counter = 0
    while produced < width:
        block = hmac_sha256(digest, _FDH_LABEL + counter.to_bytes(4, "big"))
        blocks.append(block)
        produced += len(block)
        counter += 1
    value = int.from_bytes(b"".join(blocks)[:width], "big")
    return (value % (modulus - 2)) + 1


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA verification key (n, e)."""

    modulus: int
    exponent: int

    def verify(self, message, signature):
        """Raise :class:`IntegrityError` unless ``signature`` is valid."""
        if not 0 < signature < self.modulus:
            raise IntegrityError("RSA signature out of range")
        expected = _full_domain_hash(message, self.modulus)
        if pow(signature, self.exponent, self.modulus) != expected:
            raise IntegrityError("RSA signature verification failed")

    def is_valid(self, message, signature):
        """Boolean form of :meth:`verify`."""
        try:
            self.verify(message, signature)
        except IntegrityError:
            return False
        return True

    def fingerprint(self):
        """Stable public identifier of this key."""
        material = self.modulus.to_bytes(
            (self.modulus.bit_length() + 7) // 8, "big"
        ) + self.exponent.to_bytes(8, "big")
        return sha256(material)[:8].hex()


class RsaKeyPair:
    """An RSA signing key pair."""

    def __init__(self, modulus, public_exponent, private_exponent):
        self.public_key = RsaPublicKey(modulus, public_exponent)
        self._private_exponent = private_exponent

    @classmethod
    def generate(cls, bits=DEFAULT_KEY_BITS, random_source=None):
        """Generate a fresh key pair of the given modulus width."""
        if bits < 128:
            raise ValueError("modulus too small to be meaningful")
        source = random_source or SystemRandomSource()
        exponent = 65537
        while True:
            p = _generate_prime(bits // 2, source)
            q = _generate_prime(bits - bits // 2, source)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            try:
                d = pow(exponent, -1, phi)
            except ValueError:
                continue
            return cls(p * q, exponent, d)

    def sign(self, message):
        """Produce a deterministic FDH signature over ``message``."""
        hashed = _full_domain_hash(message, self.public_key.modulus)
        return pow(hashed, self._private_exponent, self.public_key.modulus)
