"""Encrypted, authenticated envelopes for publications and subscriptions.

Outside the router enclave, both publications and subscriptions exist
only as AEAD ciphertexts under a per-client key established through the
attested key exchange.  The associated data binds the sender identity
and message kind, so envelopes cannot be replayed as a different kind
or attributed to a different client.
"""

import json

from repro.errors import IntegrityError
from repro.crypto.aead import Ciphertext, SealedBatch
from repro.scbr.filters import Constraint, Operator, Publication, Subscription


def serialize_subscription(subscription):
    """JSON bytes of a subscription (inside-enclave format)."""
    return json.dumps(
        {
            "id": subscription.subscription_id,
            "subscriber": subscription.subscriber,
            "constraints": [
                [c.attribute, c.operator.value, c.value]
                for c in subscription.constraints.values()
            ],
        },
        sort_keys=True,
    ).encode("utf-8")


def deserialize_subscription(raw):
    """Parse bytes produced by :func:`serialize_subscription`."""
    try:
        payload = json.loads(raw.decode("utf-8"))
        constraints = [
            Constraint(attribute, Operator(op), value)
            for attribute, op, value in payload["constraints"]
        ]
        return Subscription(payload["id"], constraints, payload["subscriber"])
    except (KeyError, ValueError) as exc:
        raise IntegrityError("malformed subscription: %s" % exc) from exc


def serialize_publication(publication):
    """JSON bytes of a publication."""
    return json.dumps(
        {
            "attributes": publication.attributes,
            "payload": publication.payload.hex(),
        },
        sort_keys=True,
    ).encode("utf-8")


def deserialize_publication(raw):
    """Parse bytes produced by :func:`serialize_publication`."""
    try:
        payload = json.loads(raw.decode("utf-8"))
        return Publication(
            attributes=payload["attributes"],
            payload=bytes.fromhex(payload["payload"]),
        )
    except (KeyError, ValueError) as exc:
        raise IntegrityError("malformed publication: %s" % exc) from exc


class EncryptedEnvelope:
    """A sealed message travelling through the untrusted broker fabric.

    ``recipient`` (optional) additionally binds the envelope to the
    client it is addressed to: a notification sealed for one subscriber
    never authenticates as anyone else's, even under a shared key.
    """

    def __init__(self, sender, kind, blob, recipient=None):
        self.sender = sender
        self.kind = kind
        self.blob = blob
        self.recipient = recipient

    @staticmethod
    def _aad(sender, kind, recipient=None):
        if recipient is None:
            return ("scbr|%s|%s" % (sender, kind)).encode("utf-8")
        return ("scbr|%s|%s|%s" % (sender, kind, recipient)).encode("utf-8")

    @classmethod
    def seal(cls, key, sender, kind, plaintext, recipient=None):
        """Encrypt ``plaintext`` under the client key."""
        blob = key.encrypt(
            plaintext, aad=cls._aad(sender, kind, recipient)
        ).to_bytes()
        return cls(sender, kind, blob, recipient)

    def open(self, key):
        """Decrypt (inside the enclave, or by the owning client)."""
        try:
            return key.decrypt(
                Ciphertext.from_bytes(self.blob),
                aad=self._aad(self.sender, self.kind, self.recipient),
            )
        except IntegrityError as exc:
            raise IntegrityError(
                "envelope from %r (%s) failed authentication" % (self.sender, self.kind)
            ) from exc

    @classmethod
    def seal_batch(cls, key, sender, kind, plaintexts, recipient=None):
        """Seal many messages as one envelope (one nonce+tag for all).

        High-rate publishers amortise the per-envelope framing and MAC
        across a burst; the batch stays bound to (sender, kind) exactly
        like a single envelope.
        """
        blob = key.encrypt_batch(
            list(plaintexts), aad=cls._aad(sender, kind, recipient)
        ).to_bytes()
        return cls(sender, kind, blob, recipient)

    def open_batch(self, key):
        """Open an envelope produced by :meth:`seal_batch`."""
        try:
            return key.decrypt_batch(
                SealedBatch.from_bytes(self.blob),
                aad=self._aad(self.sender, self.kind, self.recipient),
            )
        except IntegrityError as exc:
            raise IntegrityError(
                "batch envelope from %r (%s) failed authentication"
                % (self.sender, self.kind)
            ) from exc


NOTIFY_KIND = "notify"
NOTIFY_SENDER = "router"


class NotificationSealer:
    """Seals one notification envelope per subscriber, caching contexts.

    The fan-out hot path seals under as many keys as there are matched
    subscribers, per publication.  The per-subscriber sealing context
    -- the channel key plus the precomputed recipient-bound associated
    data -- is invariant across publications, so it is built once and
    reused; re-attestation (a new channel key) invalidates the cached
    entry automatically because the cache checks key identity.
    """

    def __init__(self, sender=NOTIFY_SENDER):
        self.sender = sender
        self._contexts = {}

    def context_count(self):
        """Cached sealing contexts (diagnostics)."""
        return len(self._contexts)

    def seal(self, subscriber, key, serialized_publication, subscription_ids):
        """One envelope for all of ``subscriber``'s matches of a publication.

        The payload is a sealed batch of ``[publication bytes, matched
        subscription ids]`` -- the publication is serialized by the
        caller exactly once per publish, never per notification.
        """
        cached = self._contexts.get(subscriber)
        if cached is None or cached[0] is not key:
            cached = (
                key,
                EncryptedEnvelope._aad(self.sender, NOTIFY_KIND, subscriber),
            )
            self._contexts[subscriber] = cached
        key, aad = cached
        ids_blob = json.dumps(sorted(subscription_ids)).encode("utf-8")
        blob = key.encrypt_batch(
            [serialized_publication, ids_blob], aad=aad
        ).to_bytes()
        return EncryptedEnvelope(self.sender, NOTIFY_KIND, blob, subscriber)


def open_notification(envelope, key):
    """Open a notification; returns ``(publication, subscription_ids)``.

    A notification is one sealed batch per subscriber: the publication
    plus that subscriber's matched subscription ids.  Anything else
    fails authentication.
    """
    records = envelope.open_batch(key)
    if len(records) != 2:
        raise IntegrityError(
            "notification batch carries %d records, expected 2"
            % len(records)
        )
    try:
        subscription_ids = json.loads(records[1].decode("utf-8"))
    except ValueError as exc:
        raise IntegrityError("malformed notification ids: %s" % exc) from exc
    return deserialize_publication(records[0]), list(subscription_ids)
