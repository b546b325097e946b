"""The configuration and attestation service (CAS).

Image creators register an SCF under the *measurement* of the enclave
allowed to receive it.  At container startup, the enclave generates an
ephemeral identity key inside the enclave, obtains a quote binding that
key's fingerprint, and opens a TLS-like channel to the CAS with the
quote embedded in the handshake.  The CAS releases the SCF over that
channel only if:

1. the quote's signature chains to a registered SGX platform;
2. the quoted measurement has an SCF registered;
3. the quote's report data equals the handshake key's fingerprint
   (so the channel terminates *inside* the attested enclave).
"""

from repro.errors import AttestationError
from repro.crypto.rsa import DEFAULT_KEY_BITS, RsaKeyPair
from repro.crypto.tls import establish_channel
from repro.scone.scf import StartupConfiguration
from repro.sgx.attestation import Quote


class ConfigurationService:
    """Stores SCFs and releases them to attested enclaves only."""

    def __init__(self, attestation_service, identity=None, key_bits=DEFAULT_KEY_BITS):
        self.attestation_service = attestation_service
        self.identity = identity or RsaKeyPair.generate(bits=key_bits)
        self._configurations = {}
        self.delivered = 0
        self.denied = 0

    def register_scf(self, measurement, scf):
        """Bind an SCF to the enclave measurement allowed to read it."""
        self._configurations[measurement] = scf
        self.attestation_service.trust_measurement(measurement)

    def has_scf(self, measurement):
        """Whether a configuration is registered for ``measurement``."""
        return measurement in self._configurations

    def provision(self, platform, enclave, enclave_identity=None):
        """Run the startup protocol; returns the SCF to the enclave.

        ``enclave_identity`` is the ephemeral RSA key generated inside
        the enclave for this boot (a fresh one is created when omitted;
        callers pass their own to model key reuse attacks in tests).
        """
        if enclave_identity is None:
            enclave_identity = RsaKeyPair.generate()

        # Quote binds the ephemeral channel key to the enclave identity.
        binding = enclave_identity.public_key.fingerprint().encode("ascii")
        quote = platform.quote(enclave, report_data=binding)

        delivered = {}

        def cas_verifies(payload):
            parsed = Quote.from_bytes(payload)
            try:
                self.attestation_service.verify(
                    parsed, expected_report_data=binding
                )
            except AttestationError:
                self.denied += 1
                raise
            if parsed.measurement not in self._configurations:
                self.denied += 1
                raise AttestationError(
                    "no SCF registered for measurement %s..."
                    % parsed.measurement[:16]
                )
            delivered["measurement"] = parsed.measurement

        # The enclave is the TLS *server* (it presented the quote); the
        # CAS is the client verifying it before sending secrets.
        cas_channel, enclave_channel = establish_channel(
            client_identity=self.identity,
            server_identity=enclave_identity,
            server_attestation_payload=quote.to_bytes(),
            verify_server_payload=cas_verifies,
        )

        scf = self._configurations[delivered["measurement"]]
        record = cas_channel.seal(scf.to_bytes(), record_type=b"scf")
        self.delivered += 1

        raw = enclave_channel.open(record, record_type=b"scf")
        return StartupConfiguration.from_bytes(raw)
