"""The one attested channel: every Diffie-Hellman handshake in the stack.

SCONE delivers an enclave's startup configuration over attested TLS,
and SCBR clients key against an attested router before anything leaves
them (paper Section V).  Both, and the joins between plane shards and
their coordinator, run this one protocol:

1. **Offer.**  The offering side draws an ephemeral
   :class:`~repro.crypto.dh.DhKeyPair`; its report data is one framed
   commitment (:func:`commitment`) to a label, the DH value and,
   optionally, a transcript such as a batch roster.
2. **Accept.**  The accepting side has the quote judged by the one
   :class:`~repro.sgx.attestation.AttestationService` against the
   expected measurement and that commitment (:func:`accept`).  A host
   substituting its own DH value cannot produce a matching quote.
3. **Derive.**  Both ends key with ``shared_key(peer, info=label ||
   sha256(transcript))`` (:func:`derive`).
4. **Use.**  The result is an :class:`~repro.crypto.aead.AeadKey`, or a
   :class:`SecureChannel` where a record stream is needed.

A peer value is host-supplied: anything but an ``int`` in (1, p - 1)
raises :class:`~repro.errors.IntegrityError` before a commitment is
built or an exponentiation runs.  The channel charges no virtual
cycles; its callers price their keygen, shared keys and quotes.
"""

from repro.crypto.aead import AeadKey
from repro.crypto.dh import DhKeyPair, peer_value
from repro.crypto.kdf import hkdf
from repro.crypto.primitives import sha256

# The labels of the three uses; a key or quote for one is useless for
# another.
CAS_SCF = b"cas-scf"
SCBR_CLIENT = b"scbr-client"
PLANE_JOIN = b"scbr-plane-join"


def frame(pieces):
    """Unambiguous length-prefixed concatenation."""
    return b"".join(
        len(piece).to_bytes(4, "big") + piece for piece in pieces
    )


def public_bytes(value):
    """A checked DH value in its minimal big-endian encoding."""
    value = peer_value(value)
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def commitment(label, public_value, transcript=b""):
    """The report data binding a DH value (and transcript) to a quote."""
    return sha256(frame([label, public_bytes(public_value), transcript]))


def offer(report, label, dh=None, transcript=b""):
    """Offer: ``(dh, report(commitment))``.

    ``report`` is ``ctx.report`` inside an ECALL, or a platform quote
    for infrastructure that owns the enclave object; ``dh`` is a fresh
    pair unless the caller reuses one.
    """
    if dh is None:
        dh = DhKeyPair.generate()
    return dh, report(commitment(label, dh.public_value, transcript))


def accept(attestation, quote, label, public_value, transcript=b"",
           expected_measurement=None, compute=None):
    """Accept: raise unless ``quote`` commits to ``public_value``.

    :class:`~repro.errors.IntegrityError` for a malformed value,
    :class:`~repro.errors.AttestationError` for a quote the service
    refuses or one over a different commitment.
    """
    attestation.verify(
        quote,
        expected_measurement=expected_measurement,
        expected_report_data=commitment(label, public_value, transcript),
        compute=compute,
    )


def derive(dh, public_value, label, transcript=b""):
    """Derive: the channel key between ``dh`` and the peer's value."""
    return AeadKey(
        dh.shared_key(public_value, info=label + sha256(transcript))
    )


class SecureChannel:
    """One end of a record stream over a derived channel key.

    Each direction has its own key, and every record's associated data
    carries its type and sequence number, so a replayed, reordered,
    dropped or retyped record fails to open.
    """

    def __init__(self, key, offerer):
        from_offerer = AeadKey(hkdf(key.key_bytes, b"channel|offerer"))
        from_accepter = AeadKey(hkdf(key.key_bytes, b"channel|accepter"))
        if offerer:
            self.send_key, self.receive_key = from_offerer, from_accepter
        else:
            self.send_key, self.receive_key = from_accepter, from_offerer
        self._send_sequence = 0
        self._receive_sequence = 0

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
