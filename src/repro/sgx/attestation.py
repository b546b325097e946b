"""Remote attestation: quoting enclave, quotes, verification service.

Mirrors the SGX EPID/DCAP flow at the granularity the paper relies on:

1. an application enclave produces a *report* (measurement + user data);
2. the platform's *quoting enclave* signs the report with its
   platform-specific attestation key, yielding a :class:`Quote`;
3. a remote :class:`AttestationService` (standing in for Intel's IAS /
   a DCAP verifier) checks the signature against the registered
   platform keys and applies a measurement allowlist.

The SCF delivery path (:mod:`repro.scone.cas`) embeds quotes in channel
handshakes so configuration secrets only ever flow to enclaves whose
identity has been verified -- the property Section V-A of the paper
requires.  Every quote in the stack -- clients attesting a router, the
CAS, map/reduce workers, plane joins, the front door's gateway -- is
judged by :meth:`AttestationService.verify`, so its cache and its one
revocation rule hold on every path.
"""

from dataclasses import dataclass

from repro.errors import AttestationError, IntegrityError
from repro.crypto.primitives import sha256
from repro.crypto.rsa import DEFAULT_KEY_BITS, RsaKeyPair
from repro.telemetry import default_registry

# Virtual cost of :meth:`AttestationService.verify`.  A quote
# verification stands in for the certificate-chain walk / IAS round a
# DCAP verifier performs -- by far the dominant cost of a cold join,
# which is exactly why CAS-style deployments cache it.  A cache hit pays
# a digest lookup plus the policy re-check.
QUOTE_VERIFY_CYCLES = 8_000_000
QUOTE_CACHED_CYCLES = 6_000


@dataclass(frozen=True)
class Quote:
    """A signed statement: enclave `measurement` ran on `platform_id`
    and bound `report_data` (e.g. a channel key fingerprint)."""

    platform_id: str
    measurement: str
    report_data: bytes
    signature: int

    def signed_payload(self):
        """The bytes covered by the quoting enclave's signature."""
        return (
            b"sgx-quote|"
            + self.platform_id.encode("utf-8")
            + b"|"
            + self.measurement.encode("ascii")
            + b"|"
            + self.report_data
        )

    def to_bytes(self):
        """Serialise for embedding in handshakes."""
        signature = self.signature.to_bytes(
            (self.signature.bit_length() + 7) // 8 or 1, "big"
        )
        fields = (
            self.platform_id.encode("utf-8"),
            self.measurement.encode("ascii"),
            self.report_data,
            signature,
        )
        return b"".join(
            len(piece).to_bytes(4, "big") + piece for piece in fields
        )

    @classmethod
    def from_bytes(cls, raw):
        """Parse a quote serialised by :meth:`to_bytes`."""
        fields = []
        view = memoryview(raw)
        while view:
            if len(view) < 4:
                raise IntegrityError("truncated quote")
            length = int.from_bytes(view[:4], "big")
            view = view[4:]
            if len(view) < length:
                raise IntegrityError("truncated quote field")
            fields.append(bytes(view[:length]))
            view = view[length:]
        if len(fields) != 4:
            raise IntegrityError("malformed quote")
        return cls(
            platform_id=fields[0].decode("utf-8"),
            measurement=fields[1].decode("ascii"),
            report_data=fields[2],
            signature=int.from_bytes(fields[3], "big"),
        )


class QuotingEnclave:
    """The platform's quote signer.

    Holds the attestation key; in real SGX this key is provisioned by
    Intel and certified, here the public half is registered with the
    :class:`AttestationService` out of band.
    """

    def __init__(self, platform_id, random_source=None, key_bits=DEFAULT_KEY_BITS):
        self.platform_id = platform_id
        self._keypair = RsaKeyPair.generate(bits=key_bits, random_source=random_source)

    @property
    def public_key(self):
        """The attestation verification key to register with a service."""
        return self._keypair.public_key

    def quote(self, report):
        """Sign a local report into a remotely verifiable :class:`Quote`."""
        unsigned = Quote(
            platform_id=self.platform_id,
            measurement=report.measurement,
            report_data=report.report_data,
            signature=0,
        )
        signature = self._keypair.sign(unsigned.signed_payload())
        return Quote(
            platform_id=self.platform_id,
            measurement=report.measurement,
            report_data=report.report_data,
            signature=signature,
        )


class AttestationService:
    """A remote verifier: platform registry, measurement policy, and a
    cache of verified signatures.

    :meth:`verify` remembers the quotes whose signature it has proven,
    keyed by ``(platform_id, measurement, sha256(quote.to_bytes()))``.
    The digest covers the length-prefixed quote -- every signed byte
    and the signature itself -- so neither a forged signature nor a
    shifted field boundary can ride a hit for the honest quote it
    mimics.  A hit skips only the signature check: policy (registry,
    revocation, allowlist or pin, report data) is judged live on every
    call, and a failure caches nothing.  Entries are epoch-bound:
    :meth:`revoke_measurement` and :meth:`deregister_platform` flush the
    matching ones and bump the epoch.
    """

    def __init__(self):
        self._platform_keys = {}
        self._trusted_measurements = set()
        self._revoked = set()
        self._cache = {}
        self.epoch = 1
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        registry = default_registry()
        self._tel_hits = registry.counter("provisioning.verify.hits")
        self._tel_misses = registry.counter("provisioning.verify.misses")
        self._tel_invalidations = registry.counter(
            "provisioning.verify.invalidations"
        )

    def register_platform(self, platform_id, public_key):
        """Record a platform's attestation public key (provisioning)."""
        self._platform_keys[platform_id] = public_key

    def deregister_platform(self, platform_id):
        """Forget a platform's attestation key (decommissioning).

        Quotes from the platform fail verification afterwards, exactly
        as if the platform had never been provisioned.
        """
        self._platform_keys.pop(platform_id, None)
        self._invalidate(lambda key: key[0] == platform_id)

    def platform_registered(self, platform_id):
        """Whether ``platform_id`` currently has a registered key."""
        return platform_id in self._platform_keys

    def trust_measurement(self, measurement):
        """Allowlist an enclave measurement (lifting any revocation)."""
        self._revoked.discard(measurement)
        self._trusted_measurements.add(measurement)

    def revoke_measurement(self, measurement):
        """Remove a measurement from the allowlist and refuse it, even
        where a caller pins it by ``expected_measurement``, until it is
        trusted again."""
        self._trusted_measurements.discard(measurement)
        self._revoked.add(measurement)
        self._invalidate(lambda key: key[1] == measurement)

    def measurement_revoked(self, measurement):
        """Whether ``measurement`` is revoked: the one revocation rule,
        applied to every quote and to every ticket re-join."""
        return measurement in self._revoked

    @property
    def trusted_measurements(self):
        """The current allowlist (copy)."""
        return set(self._trusted_measurements)

    def _invalidate(self, matches):
        flushed = [key for key in self._cache if matches(key)]
        for key in flushed:
            del self._cache[key]
        # The epoch bump stales every *other* entry too: after a
        # revocation event the whole cache re-earns its verdicts.
        self.epoch += 1
        self.invalidations += len(flushed)
        self._tel_invalidations.inc(len(flushed))

    def verify(self, quote, expected_measurement=None,
               expected_report_data=None, compute=None):
        """Validate ``quote``; raises :class:`AttestationError` on failure.

        Checks, in order: the measurement is not revoked, the platform
        is registered, the signature is valid under that platform's key
        (skipped on a cache hit), the measurement is trusted (or equals
        ``expected_measurement``), and the report data matches
        ``expected_report_data`` when given.  ``compute`` (optional
        callable) is charged the virtual verification cost: the full
        :data:`QUOTE_VERIFY_CYCLES` on a miss, :data:`QUOTE_CACHED_CYCLES`
        on a hit.
        """
        if self.measurement_revoked(quote.measurement):
            raise AttestationError(
                "measurement %s... has been revoked" % quote.measurement[:16]
            )
        key = (quote.platform_id, quote.measurement, sha256(quote.to_bytes()))
        hit = self._cache.get(key) == self.epoch
        if compute is not None:
            compute(QUOTE_CACHED_CYCLES if hit else QUOTE_VERIFY_CYCLES)
        public_key = self._platform_keys.get(quote.platform_id)
        if public_key is None:
            raise AttestationError(
                "platform %r is not registered" % quote.platform_id
            )
        # A hit's signature was proven under this epoch; everything
        # else is re-judged live.
        if not hit:
            try:
                public_key.verify(quote.signed_payload(), quote.signature)
            except IntegrityError as exc:
                raise AttestationError("quote signature invalid") from exc
        if expected_measurement is not None:
            if quote.measurement != expected_measurement:
                raise AttestationError(
                    "measurement mismatch: quote reports %s, expected %s"
                    % (quote.measurement[:16], expected_measurement[:16])
                )
        elif quote.measurement not in self._trusted_measurements:
            raise AttestationError(
                "measurement %s... is not trusted" % quote.measurement[:16]
            )
        if expected_report_data is not None:
            if quote.report_data != expected_report_data:
                raise AttestationError("report data mismatch")
        if hit:
            self.hits += 1
            self._tel_hits.inc()
        else:
            self._cache[key] = self.epoch
            self.misses += 1
            self._tel_misses.inc()
        return True
