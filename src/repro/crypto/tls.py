"""A TLS-like authenticated channel.

Implements the handshake SecureCloud components use to talk to each
other and to the configuration service:

1. each side holds an RSA identity key;
2. both exchange ephemeral Diffie-Hellman values, each signed by the
   sender's identity key together with the full transcript so far
   (preventing man-in-the-middle splicing);
3. both derive direction-specific AEAD record keys from the DH secret;
4. records carry a sequence number in their associated data, so replay,
   reordering, and truncation are detected.

An optional ``attestation_payload`` (an SGX quote, serialised) rides in
the server's signed handshake message; the client passes it to a
verification callback before the channel is considered established.
This is how SCF delivery authenticates the *enclave*, not just a key.
"""

from dataclasses import dataclass, field

from repro.errors import IntegrityError, TransportError
from repro.crypto.aead import AeadKey
from repro.crypto.dh import DhKeyPair
from repro.crypto.kdf import hkdf
from repro.crypto.primitives import sha256


@dataclass
class HandshakeMessage:
    """One side's contribution: DH value, identity, signature, payload."""

    dh_public: int
    identity_fingerprint: str
    signature: int
    attestation_payload: bytes = b""

    def transcript_bytes(self):
        """Canonical bytes covered by the peer's signature."""
        return (
            self.dh_public.to_bytes((self.dh_public.bit_length() + 7) // 8, "big")
            + self.identity_fingerprint.encode("ascii")
            + len(self.attestation_payload).to_bytes(8, "big")
            + self.attestation_payload
        )


@dataclass
class SecureChannel:
    """One endpoint of an established record channel.

    Create pairs with :func:`establish_channel`; use :meth:`seal` to
    produce a record and :meth:`open` to consume the peer's next record.
    """

    send_key: AeadKey
    receive_key: AeadKey
    peer_fingerprint: str
    _send_sequence: int = field(default=0, repr=False)
    _receive_sequence: int = field(default=0, repr=False)

    def seal(self, plaintext, record_type=b"data"):
        """Encrypt ``plaintext`` as the next outgoing record."""
        aad = record_type + b"|" + self._send_sequence.to_bytes(8, "big")
        self._send_sequence += 1
        return self.send_key.seal(plaintext, aad)

    def open(self, record, record_type=b"data"):
        """Decrypt the peer's next record; raises on tamper or replay."""
        aad = record_type + b"|" + self._receive_sequence.to_bytes(8, "big")
        plaintext = self.receive_key.open(
            record, aad, what="record %d" % self._receive_sequence
        )
        self._receive_sequence += 1
        return plaintext


def _derive_record_keys(shared_secret, client_hello, server_hello):
    transcript = sha256(
        client_hello.transcript_bytes() + server_hello.transcript_bytes()
    )
    client_key = AeadKey(hkdf(shared_secret, b"c2s|" + transcript))
    server_key = AeadKey(hkdf(shared_secret, b"s2c|" + transcript))
    return client_key, server_key


def establish_channel(
    client_identity,
    server_identity,
    server_attestation_payload=b"",
    verify_server_payload=None,
    client_random_source=None,
    server_random_source=None,
):
    """Run the handshake and return ``(client_channel, server_channel)``.

    ``client_identity``/``server_identity`` are :class:`RsaKeyPair`
    objects.  In a real deployment the two endpoints live in different
    processes; here the handshake is executed in one place but only
    exchanges the messages a network would carry, so every
    authentication property is still enforced end-to-end.

    ``verify_server_payload`` is called with the server's attestation
    payload (after its signature has been checked); it should raise
    :class:`~repro.errors.AttestationError` to reject the peer.
    """
    client_dh = DhKeyPair.generate(client_random_source)
    server_dh = DhKeyPair.generate(server_random_source)

    client_hello = HandshakeMessage(
        dh_public=client_dh.public_value,
        identity_fingerprint=client_identity.public_key.fingerprint(),
        signature=0,
    )
    client_hello.signature = client_identity.sign(client_hello.transcript_bytes())

    # The server signs its own message *and* the client hello, binding
    # the two halves of the handshake together.
    server_hello = HandshakeMessage(
        dh_public=server_dh.public_value,
        identity_fingerprint=server_identity.public_key.fingerprint(),
        signature=0,
        attestation_payload=server_attestation_payload,
    )
    server_transcript = (
        client_hello.transcript_bytes() + server_hello.transcript_bytes()
    )
    server_hello.signature = server_identity.sign(server_transcript)

    # --- client verifies the server ---
    try:
        server_identity.public_key.verify(server_transcript, server_hello.signature)
    except IntegrityError as exc:
        raise TransportError("server handshake signature invalid") from exc
    if verify_server_payload is not None:
        verify_server_payload(server_hello.attestation_payload)

    # --- server verifies the client ---
    try:
        client_identity.public_key.verify(
            client_hello.transcript_bytes(), client_hello.signature
        )
    except IntegrityError as exc:
        raise TransportError("client handshake signature invalid") from exc

    shared = client_dh.shared_key(server_dh.public_value)
    client_key, server_key = _derive_record_keys(shared, client_hello, server_hello)

    client_channel = SecureChannel(
        send_key=client_key,
        receive_key=server_key,
        peer_fingerprint=server_hello.identity_fingerprint,
    )
    server_channel = SecureChannel(
        send_key=server_key,
        receive_key=client_key,
        peer_fingerprint=client_hello.identity_fingerprint,
    )
    return client_channel, server_channel
