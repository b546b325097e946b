"""Known-answer vectors for the one attested channel.

Private values are fixed with ``DhKeyPair(private)``, so every
commitment and key below is a pure function of the protocol: a change
to a label, to the framing of a commitment or transcript, or to the KDF
info changes a pinned value and fails here.  The single-offer case is a
client or CAS channel; the batch case is a plane join, whose
coordinator commits to the roster as its transcript.
"""

import hashlib

from repro.crypto.dh import DhKeyPair
from repro.scbr.provisioning import roster_transcript
from repro.sgx import channel

OFFERER = DhKeyPair(0x5EED0001)
PEER = DhKeyPair(0x5EED0002)
COORDINATOR = DhKeyPair(0x5EED0003)

COMMITMENTS = {
    channel.CAS_SCF:
        "99995451cd5caa87dcf9cbef1cc907c172e2a7f2ec00260315b39d7ab72c6ff4",
    channel.SCBR_CLIENT:
        "864db3fbb23ad1979952d0828216960fe2311770d6320b1579ac96132a3f19bf",
    channel.PLANE_JOIN:
        "37fc6f7f5981e52a2caa74d61d079ec9943aaccfb4b3c3e7f3f63d0625c9cda9",
}


def _framed(*pieces):
    return b"".join(len(piece).to_bytes(4, "big") + piece for piece in pieces)


def test_single_offer_commitment_per_label():
    public = OFFERER.public_value
    encoded = public.to_bytes((public.bit_length() + 7) // 8, "big")
    for label, expected in COMMITMENTS.items():
        assert channel.commitment(label, public).hex() == expected
        assert channel.commitment(label, public) == hashlib.sha256(
            _framed(label, encoded, b"")
        ).digest()


def test_single_offer_key():
    key = channel.derive(OFFERER, PEER.public_value, channel.SCBR_CLIENT)
    assert key.key_bytes.hex() == (
        "ff30c2bb7431a87814c4a8bd17c51b752a6ffe8dec5594c5c3463f3d41c3a0f5"
    )
    other_end = channel.derive(PEER, OFFERER.public_value, channel.SCBR_CLIENT)
    assert other_end.key_bytes == key.key_bytes


def test_record_stream_direction_keys():
    key = channel.derive(OFFERER, PEER.public_value, channel.SCBR_CLIENT)
    offering_end = channel.SecureChannel(key, offerer=True)
    assert offering_end.send_key.key_bytes.hex() == (
        "dc02f4eb0634cc7314c1b8830243f09ded473142e95ebf60e66bb654ef9d9045"
    )
    assert offering_end.receive_key.key_bytes.hex() == (
        "c4ac643ad975099d7c91d84fd89653617e7878e65718ab2aa3d78277961da89c"
    )


def test_batch_commitment_and_key():
    transcript = roster_transcript(
        [(0, OFFERER.public_value), (1, PEER.public_value)]
    )
    assert channel.commitment(
        channel.PLANE_JOIN, COORDINATOR.public_value, transcript
    ).hex() == (
        "15e5b481d5d590ba61fa91517ccec84dccbea9237c6f7ed3b7988d823078115f"
    )
    key = channel.derive(
        COORDINATOR, OFFERER.public_value, channel.PLANE_JOIN, transcript
    )
    assert key.key_bytes.hex() == (
        "8cdea7ae3b4a14ebca4f6404a69a5959f7d103ca416f0905ea97b0bef9fbd741"
    )
    shard_end = channel.derive(
        OFFERER, COORDINATOR.public_value, channel.PLANE_JOIN, transcript
    )
    assert shard_end.key_bytes == key.key_bytes
