"""The configuration and attestation service (CAS).

Image creators register an SCF under the *measurement* of the enclave
allowed to receive it.  At container startup the enclave offers the
CAS an attested channel (:mod:`repro.sgx.channel`): its quote commits
to an ephemeral DH value drawn for this boot.  The CAS releases the SCF
over that channel, as one record, only if:

1. the quote's signature chains to a registered SGX platform;
2. the quoted measurement has an SCF registered;
3. the quote's report data commits to the offered DH value (so the
   channel terminates *inside* the attested enclave).
"""

from repro.errors import AttestationError
from repro.crypto.dh import DhKeyPair
from repro.scone.scf import StartupConfiguration
from repro.sgx import channel


class ConfigurationService:
    """Stores SCFs and releases them to attested enclaves only."""

    def __init__(self, attestation_service):
        self.attestation_service = attestation_service
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

    def provision(self, platform, enclave):
        """Run the startup protocol; returns the SCF to the enclave."""
        enclave_dh, quote = channel.offer(
            lambda data: platform.quote(enclave, report_data=data),
            channel.CAS_SCF,
        )
        try:
            channel.accept(
                self.attestation_service, quote, channel.CAS_SCF,
                enclave_dh.public_value,
            )
        except AttestationError:
            self.denied += 1
            raise
        scf = self._configurations.get(quote.measurement)
        if scf is None:
            self.denied += 1
            raise AttestationError(
                "no SCF registered for measurement %s..."
                % quote.measurement[:16]
            )
        cas_dh = DhKeyPair.generate()
        cas_end = channel.SecureChannel(
            channel.derive(cas_dh, enclave_dh.public_value, channel.CAS_SCF),
            offerer=False,
        )
        record = cas_end.seal(scf.to_bytes(), record_type=b"scf")
        self.delivered += 1

        enclave_end = channel.SecureChannel(
            channel.derive(enclave_dh, cas_dh.public_value, channel.CAS_SCF),
            offerer=True,
        )
        raw = enclave_end.open(record, record_type=b"scf")
        return StartupConfiguration.from_bytes(raw)
