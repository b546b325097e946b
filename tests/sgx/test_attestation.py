"""Tests for quotes and the attestation service."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import AttestationError, IntegrityError
from repro.sgx.attestation import (
    QUOTE_CACHED_CYCLES,
    QUOTE_VERIFY_CYCLES,
    AttestationService,
    Quote,
)
from repro.sgx.enclave import EnclaveCode
from repro.sgx.platform import SgxPlatform


def noop(ctx):
    return None


def make_report(ctx, data):
    return ctx.report(data)


CODE = EnclaveCode("attested-svc", {"noop": noop, "make_report": make_report})


@pytest.fixture()
def platform():
    return SgxPlatform(seed=3, quoting_key_bits=512)


@pytest.fixture()
def enclave(platform):
    return platform.load_enclave(CODE)


@pytest.fixture()
def service(platform):
    service = AttestationService()
    service.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    return service


class TestQuotes:
    def test_quote_verifies_when_trusted(self, platform, enclave, service):
        service.trust_measurement(enclave.measurement)
        quote = platform.quote(enclave, b"channel-binding")
        assert service.verify(quote)

    def test_quote_from_inside_enclave(self, platform, enclave, service):
        service.trust_measurement(enclave.measurement)
        report = enclave.ecall("make_report", b"data")
        quote = platform.quoting_enclave.quote(report)
        assert service.verify(quote, expected_report_data=b"data")

    def test_untrusted_measurement_rejected(self, platform, enclave, service):
        quote = platform.quote(enclave)
        with pytest.raises(AttestationError, match="not trusted"):
            service.verify(quote)

    def test_expected_measurement_overrides_allowlist(
        self, platform, enclave, service
    ):
        quote = platform.quote(enclave)
        assert service.verify(quote, expected_measurement=enclave.measurement)

    def test_wrong_expected_measurement_rejected(self, platform, enclave, service):
        quote = platform.quote(enclave)
        with pytest.raises(AttestationError, match="measurement mismatch"):
            service.verify(quote, expected_measurement="0" * 64)

    def test_unregistered_platform_rejected(self, platform, enclave):
        empty_service = AttestationService()
        quote = platform.quote(enclave)
        with pytest.raises(AttestationError, match="not registered"):
            empty_service.verify(quote)

    def test_forged_signature_rejected(self, platform, enclave, service):
        service.trust_measurement(enclave.measurement)
        quote = platform.quote(enclave)
        forged = Quote(
            platform_id=quote.platform_id,
            measurement=quote.measurement,
            report_data=quote.report_data,
            signature=quote.signature ^ 1,
        )
        with pytest.raises(AttestationError, match="signature invalid"):
            service.verify(forged)

    def test_tampered_measurement_rejected(self, platform, enclave, service):
        tampered_measurement = "f" * 64
        service.trust_measurement(tampered_measurement)
        quote = platform.quote(enclave)
        tampered = Quote(
            platform_id=quote.platform_id,
            measurement=tampered_measurement,
            report_data=quote.report_data,
            signature=quote.signature,
        )
        with pytest.raises(AttestationError, match="signature invalid"):
            service.verify(tampered)

    def test_report_data_binding(self, platform, enclave, service):
        service.trust_measurement(enclave.measurement)
        quote = platform.quote(enclave, b"expected")
        with pytest.raises(AttestationError, match="report data"):
            service.verify(quote, expected_report_data=b"other")

    def test_quote_from_wrong_platform_key(self, enclave, platform):
        other_platform = SgxPlatform(seed=99, quoting_key_bits=512)
        service = AttestationService()
        # Register the *other* platform's key under this platform's id.
        service.register_platform(
            platform.platform_id, other_platform.quoting_enclave.public_key
        )
        service.trust_measurement(enclave.measurement)
        quote = platform.quote(enclave)
        with pytest.raises(AttestationError, match="signature invalid"):
            service.verify(quote)


class TestQuoteSerialisation:
    def test_round_trip(self, platform, enclave):
        quote = platform.quote(enclave, b"payload")
        parsed = Quote.from_bytes(quote.to_bytes())
        assert parsed == quote

    def test_truncated_rejected(self, platform, enclave):
        raw = platform.quote(enclave).to_bytes()
        with pytest.raises(IntegrityError):
            Quote.from_bytes(raw[:10])

    def test_malformed_rejected(self):
        with pytest.raises(IntegrityError):
            Quote.from_bytes(b"\x00\x00\x00\x02ab")

    @given(
        platform_id=st.text(min_size=1, max_size=40),
        measurement=st.text(
            alphabet="0123456789abcdef", min_size=0, max_size=64
        ),
        report_data=st.binary(min_size=0, max_size=256),
        signature=st.integers(min_value=0, max_value=2 ** 512 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, platform_id, measurement,
                                 report_data, signature):
        """Any quote -- including one with empty report data or a
        zero signature -- survives to_bytes/from_bytes unchanged."""
        quote = Quote(
            platform_id=platform_id,
            measurement=measurement,
            report_data=report_data,
            signature=signature,
        )
        assert Quote.from_bytes(quote.to_bytes()) == quote

    def test_round_trip_empty_report_data(self, platform, enclave):
        quote = platform.quote(enclave, b"")
        assert quote.report_data == b""
        assert Quote.from_bytes(quote.to_bytes()) == quote


class TestMeasurementPolicy:
    def test_revocation(self, platform, enclave, service):
        service.trust_measurement(enclave.measurement)
        quote = platform.quote(enclave)
        assert service.verify(quote)
        service.revoke_measurement(enclave.measurement)
        with pytest.raises(AttestationError):
            service.verify(quote)

    def test_trusted_measurements_copy(self, service):
        service.trust_measurement("abc")
        snapshot = service.trusted_measurements
        snapshot.clear()
        assert service.trusted_measurements == {"abc"}

    def test_deregistered_platform_rejected(self, platform, enclave,
                                            service):
        service.trust_measurement(enclave.measurement)
        quote = platform.quote(enclave)
        assert service.verify(quote)
        assert service.platform_registered(platform.platform_id)
        service.deregister_platform(platform.platform_id)
        assert not service.platform_registered(platform.platform_id)
        with pytest.raises(AttestationError, match="not registered"):
            service.verify(quote)
        # Idempotent: deregistering twice is not an error.
        service.deregister_platform(platform.platform_id)

    def test_cache_hit_skips_only_the_signature(self, platform, enclave,
                                                service):
        service.trust_measurement(enclave.measurement)
        good = platform.quote(enclave, b"data")
        charged = []
        assert service.verify(good, compute=charged.append)
        # Every later call is a hit (priced as one), and a hit still
        # applies the pin, report-data, revocation and registry policy.
        with pytest.raises(AttestationError, match="report data"):
            service.verify(good, expected_report_data=b"other",
                           compute=charged.append)
        with pytest.raises(AttestationError, match="measurement mismatch"):
            service.verify(good, expected_measurement="f" * 64,
                           compute=charged.append)
        assert service.verify(good, expected_report_data=b"data",
                              compute=charged.append)
        assert charged == [QUOTE_VERIFY_CYCLES] + [QUOTE_CACHED_CYCLES] * 3
        assert (service.hits, service.misses) == (1, 1)
        service.revoke_measurement(enclave.measurement)
        with pytest.raises(AttestationError, match="revoked"):
            service.verify(good)
        service.trust_measurement(enclave.measurement)
        service.deregister_platform(platform.platform_id)
        with pytest.raises(AttestationError, match="not registered"):
            service.verify(good)

    def test_retrust_lifts_a_revocation_pinned_or_not(self, platform,
                                                      enclave, service):
        measurement = enclave.measurement
        service.trust_measurement(measurement)
        quote = platform.quote(enclave)
        assert service.verify(quote)
        service.revoke_measurement(measurement)
        for pin in (None, measurement):
            with pytest.raises(AttestationError, match="revoked"):
                service.verify(quote, expected_measurement=pin)
        service.trust_measurement(measurement)
        charged = []
        for pin in (None, measurement, None, measurement):
            assert service.verify(quote, expected_measurement=pin,
                                  compute=charged.append)
        # Cold (the revocation staled the cache), then warm.
        assert charged == [QUOTE_VERIFY_CYCLES] + [QUOTE_CACHED_CYCLES] * 3
