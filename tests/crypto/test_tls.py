"""The attested channel that stands in for TLS: handshake and records.

One end offers a DH value committed in its quote, the other accepts it
through the attestation service, both derive the channel key, and a
:class:`SecureChannel` pair carries sequenced records over it.
"""

import pytest

from repro.errors import AttestationError, IntegrityError
from repro.crypto.dh import DhKeyPair
from repro.sgx import channel
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveCode
from repro.sgx.platform import SgxPlatform

LABEL = b"test-channel"


def _main(ctx):
    return None


CODE = EnclaveCode("channel-peer", {"main": _main})


@pytest.fixture(scope="module")
def world():
    platform = SgxPlatform(seed=21, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    attestation.trust_measurement(CODE.measurement)
    return platform, attestation, platform.load_enclave(CODE)


def offer(world):
    platform, _attestation, enclave = world
    return channel.offer(
        lambda data: platform.quote(enclave, report_data=data), LABEL
    )


def make_channels(world):
    """``(offering_end, accepting_end)`` after a full handshake."""
    enclave_dh, quote = offer(world)
    channel.accept(world[1], quote, LABEL, enclave_dh.public_value)
    peer_dh = DhKeyPair.generate()
    return (
        channel.SecureChannel(
            channel.derive(enclave_dh, peer_dh.public_value, LABEL),
            offerer=True,
        ),
        channel.SecureChannel(
            channel.derive(peer_dh, enclave_dh.public_value, LABEL),
            offerer=False,
        ),
    )


class TestHandshake:
    def test_establishes_working_pair(self, world):
        client_chan, server_chan = make_channels(world)
        record = client_chan.seal(b"hello server")
        assert server_chan.open(record) == b"hello server"
        reply = server_chan.seal(b"hello client")
        assert client_chan.open(reply) == b"hello client"

    def test_attestation_payload_delivered(self, world):
        """The quote commits to the offered DH value under the label,
        and accepts no other value or label."""
        dh, quote = offer(world)
        assert quote.measurement == CODE.measurement
        assert quote.report_data == channel.commitment(LABEL, dh.public_value)
        with pytest.raises(AttestationError):
            channel.accept(
                world[1], quote, LABEL, DhKeyPair.generate().public_value
            )
        with pytest.raises(AttestationError):
            channel.accept(world[1], quote, b"other", dh.public_value)

    def test_attestation_rejection_aborts(self, world):
        dh, quote = offer(world)
        with pytest.raises(AttestationError):
            channel.accept(
                world[1], quote, LABEL, dh.public_value,
                expected_measurement="0" * 64,
            )


class TestRecordLayer:
    def test_tampered_record_rejected(self, world):
        client_chan, server_chan = make_channels(world)
        record = bytearray(client_chan.seal(b"secret"))
        record[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            server_chan.open(bytes(record))

    def test_replay_rejected(self, world):
        client_chan, server_chan = make_channels(world)
        record = client_chan.seal(b"once")
        assert server_chan.open(record) == b"once"
        with pytest.raises(IntegrityError):
            server_chan.open(record)

    def test_reorder_rejected(self, world):
        client_chan, server_chan = make_channels(world)
        first = client_chan.seal(b"first")
        second = client_chan.seal(b"second")
        with pytest.raises(IntegrityError):
            server_chan.open(second)
        assert server_chan.open(first) == b"first"

    def test_record_type_binding(self, world):
        client_chan, server_chan = make_channels(world)
        record = client_chan.seal(b"config", record_type=b"scf")
        with pytest.raises(IntegrityError):
            server_chan.open(record, record_type=b"data")

    def test_directional_keys_differ(self, world):
        client_chan, server_chan = make_channels(world)
        assert (client_chan.send_key.key_bytes
                != client_chan.receive_key.key_bytes)
        assert (client_chan.send_key.key_bytes
                == server_chan.receive_key.key_bytes)
        with pytest.raises(IntegrityError):
            client_chan.open(client_chan.seal(b"echo"))

    def test_long_conversation(self, world):
        client_chan, server_chan = make_channels(world)
        for i in range(50):
            message = ("msg-%d" % i).encode()
            assert server_chan.open(client_chan.seal(message)) == message
