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
requires.
"""

from dataclasses import dataclass

from repro.errors import AttestationError, IntegrityError
from repro.crypto.rsa import DEFAULT_KEY_BITS, RsaKeyPair


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
    """A remote verifier with platform registry and measurement policy."""

    def __init__(self):
        self._platform_keys = {}
        self._trusted_measurements = set()

    def register_platform(self, platform_id, public_key):
        """Record a platform's attestation public key (provisioning)."""
        self._platform_keys[platform_id] = public_key

    def deregister_platform(self, platform_id):
        """Forget a platform's attestation key (decommissioning).

        Quotes from the platform fail verification afterwards, exactly
        as if the platform had never been provisioned.
        """
        self._platform_keys.pop(platform_id, None)

    def platform_registered(self, platform_id):
        """Whether ``platform_id`` currently has a registered key."""
        return platform_id in self._platform_keys

    def trust_measurement(self, measurement):
        """Allowlist an enclave measurement."""
        self._trusted_measurements.add(measurement)

    def revoke_measurement(self, measurement):
        """Remove a measurement from the allowlist."""
        self._trusted_measurements.discard(measurement)

    @property
    def trusted_measurements(self):
        """The current allowlist (copy)."""
        return set(self._trusted_measurements)

    def check_policy(self, quote, expected_measurement=None,
                     expected_report_data=None):
        """Apply the cheap policy checks of :meth:`verify` to ``quote``.

        Everything except the signature: the platform must be
        registered, the measurement trusted (or equal to
        ``expected_measurement``), and the report data equal to
        ``expected_report_data`` when given.  Verification caches rerun
        this on every hit so revocation and deregistration stay live
        even when the signature check is skipped.
        """
        if quote.platform_id not in self._platform_keys:
            raise AttestationError(
                "platform %r is not registered" % quote.platform_id
            )
        self._check_measurement(quote, expected_measurement)
        if expected_report_data is not None:
            if quote.report_data != expected_report_data:
                raise AttestationError("report data mismatch")
        return True

    def verify(self, quote, expected_measurement=None, expected_report_data=None):
        """Validate ``quote``; raises :class:`AttestationError` on failure.

        Checks, in order: the platform is registered, the signature is
        valid under that platform's key, the measurement is trusted (or
        equals ``expected_measurement``), and the report data matches
        ``expected_report_data`` when given.
        """
        public_key = self._platform_keys.get(quote.platform_id)
        if public_key is None:
            raise AttestationError(
                "platform %r is not registered" % quote.platform_id
            )
        try:
            public_key.verify(quote.signed_payload(), quote.signature)
        except IntegrityError as exc:
            raise AttestationError("quote signature invalid") from exc
        self._check_measurement(quote, expected_measurement)
        if expected_report_data is not None:
            if quote.report_data != expected_report_data:
                raise AttestationError("report data mismatch")
        return True

    def _check_measurement(self, quote, expected_measurement):
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
