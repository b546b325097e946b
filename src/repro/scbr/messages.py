"""Encrypted, authenticated envelopes for publications and subscriptions.

Outside the router enclave, both publications and subscriptions exist
only as AEAD ciphertexts under a per-client key established through the
attested key exchange.  The associated data binds the sender identity
and message kind, so envelopes cannot be replayed as a different kind
or attributed to a different client.
"""

import json
from math import isfinite

from repro.errors import AttestationError, IntegrityError
from repro.crypto.chunked import serial_seal_cycles
from repro.scbr.filters import Constraint, Operator, Publication, Subscription


def serialize_subscription(subscription):
    """JSON bytes of a subscription (inside-enclave format).

    A subscription is immutable, so it is encoded on first use and the
    bytes stay with it (``Subscription.wire_memo``): a checkpoint, a
    migration or a resend reuses them.  Only this encoder fills the
    memo -- never bytes a client sent, which need not be canonical.
    """
    wire = subscription.wire_memo
    if wire is None:
        wire = json.dumps(
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
        subscription.wire_memo = wire
    return wire


def _number(value):
    """``value`` if it is a finite ``int`` or ``float``, else refused.

    What crosses into an enclave is compared with ``<`` and ``==``
    against other tenants' values (matching, covering), so anything
    else -- a string, a list, ``true``, ``NaN`` or ``Infinity`` -- is
    refused at the boundary instead of raising ``TypeError`` in a
    matcher, or comparing false with everything, later.
    """
    kind = type(value)
    if kind is int or (kind is float and isfinite(value)):
        return value
    raise ValueError("%r is not a finite number" % (value,))


def _constraint(attribute, op, value):
    operator = Operator(op)
    if operator is Operator.RANGE:
        low, high = value
        value = (_number(low), _number(high))
    else:
        value = _number(value)
    return Constraint(attribute, operator, value)


def deserialize_subscription(raw):
    """Parse bytes produced by :func:`serialize_subscription`.

    Every constraint value and range bound must be a finite number
    (:func:`_number`); anything else raises :class:`IntegrityError`.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
        constraints = [
            _constraint(attribute, op, value)
            for attribute, op, value in payload["constraints"]
        ]
        return Subscription(payload["id"], constraints, payload["subscriber"])
    except (KeyError, TypeError, ValueError) as exc:
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
    """Parse bytes produced by :func:`serialize_publication`.

    Every attribute value must be a finite number (:func:`_number`);
    anything else raises :class:`IntegrityError`.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
        attributes = payload["attributes"]
        for value in attributes.values():
            _number(value)
        return Publication(
            attributes=attributes,
            payload=bytes.fromhex(payload["payload"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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
        blob = key.seal(plaintext, cls._aad(sender, kind, recipient))
        return cls(sender, kind, blob, recipient)

    def open(self, key):
        """Decrypt (inside the enclave, or by the owning client)."""
        return key.open(
            self.blob, self._aad(self.sender, self.kind, self.recipient),
            what="envelope from %r (%s)" % (self.sender, self.kind),
        )

    @classmethod
    def seal_batch(cls, key, sender, kind, plaintexts, recipient=None):
        """Seal many messages as one envelope (one nonce+tag for all).

        High-rate publishers amortise the per-envelope framing and MAC
        across a burst; the batch stays bound to (sender, kind) exactly
        like a single envelope.
        """
        blob = key.seal_records(
            plaintexts, cls._aad(sender, kind, recipient)
        )
        return cls(sender, kind, blob, recipient)

    def open_batch(self, key):
        """Open an envelope produced by :meth:`seal_batch`."""
        return key.open_records(
            self.blob, self._aad(self.sender, self.kind, self.recipient),
            what="batch envelope from %r (%s)" % (self.sender, self.kind),
        )


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

    def __init__(self):
        self._contexts = {}

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
                EncryptedEnvelope._aad(NOTIFY_SENDER, NOTIFY_KIND, subscriber),
            )
            self._contexts[subscriber] = cached
        key, aad = cached
        ids_blob = json.dumps(sorted(subscription_ids)).encode("utf-8")
        blob = key.seal_records([serialized_publication, ids_blob], aad)
        return EncryptedEnvelope(NOTIFY_SENDER, NOTIFY_KIND, blob, subscriber)


# What the monolithic router enclave and the sharded plane's coordinator
# enclave both do with a client's envelopes; ``ctx.state`` holds the
# ``client_keys`` the attested key exchange installed and the enclave's
# ``notification_sealer``.

def client_key(ctx, client_id):
    """The channel key ``client_id`` established with this enclave."""
    key = ctx.state.get("client_keys", {}).get(client_id)
    if key is None:
        raise AttestationError("client %r has not established a key" % client_id)
    return key


def open_from_client(ctx, envelope, kind):
    """Open a ``kind`` envelope under its sender's channel key."""
    key = client_key(ctx, envelope.sender)
    if envelope.kind != kind:
        raise IntegrityError("expected a %s envelope" % kind)
    return envelope.open(key)


def open_unsubscribe(ctx, envelope):
    """Open a client's unsubscribe envelope; returns the subscription id.

    The owner to check it against is ``envelope.sender``, which the
    associated data authenticates: the host can neither name a
    subscription nor claim who asked.
    """
    payload = open_from_client(ctx, envelope, "unsubscribe")
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IntegrityError("malformed unsubscribe: %s" % exc) from exc


def admit_subscription(ctx, envelope):
    """Open a client's subscription envelope; ``(subscription, payload)``.

    The envelope authenticates its sender, so a subscription naming
    any other subscriber is refused: nobody subscribes on another
    client's behalf.
    """
    payload = open_from_client(ctx, envelope, "subscribe")
    subscription = deserialize_subscription(payload)
    if subscription.subscriber != envelope.sender:
        raise IntegrityError(
            "subscription claims subscriber %r but was sent by %r"
            % (subscription.subscriber, envelope.sender)
        )
    return subscription, payload


def fan_out(ctx, serialized_publication, matches):
    """Seal the per-subscriber notifications of one publication.

    ``matches`` is ``(subscription_id, subscriber)`` pairs.  They are
    grouped (and thereby deduplicated) by subscriber, so a subscriber
    holding several matching subscriptions receives one envelope
    carrying all of its matched ids; each envelope is one sealed batch
    (one nonce+tag) produced through the cached per-subscriber context
    and charged on its sealed length.  The publication was serialized
    by the caller, exactly once per publish.

    Returns sorted ``(subscriber, envelope)`` pairs.
    """
    by_subscriber = {}
    for subscription_id, subscriber in matches:
        by_subscriber.setdefault(subscriber, []).append(subscription_id)
    sealer = ctx.state["notification_sealer"]
    routed = []
    for subscriber in sorted(by_subscriber):
        envelope = sealer.seal(
            subscriber,
            client_key(ctx, subscriber),
            serialized_publication,
            by_subscriber[subscriber],
        )
        ctx.compute(serial_seal_cycles(len(envelope.blob)))
        routed.append((subscriber, envelope))
    return routed


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
