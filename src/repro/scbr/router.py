"""The enclave-hosted SCBR router.

The router's matching engine (a :class:`ContainmentIndex` backed by
enclave memory) lives entirely in enclave state; the code outside the
enclave only moves :class:`EncryptedEnvelope` objects around.  Matched
publications are re-encrypted per subscriber before leaving the
enclave, so the broker never observes content, subscriptions, or even
which subscriber matched what beyond envelope counts.
"""

import json

from repro.errors import IntegrityError
from repro.scbr.index import ContainmentIndex
from repro.scbr.keyexchange import (
    enclave_channel_accept,
    enclave_channel_offer,
)
from repro.scbr.messages import (
    EncryptedEnvelope,
    NotificationSealer,
    admit_subscription,
    client_key,
    deserialize_publication,
    deserialize_subscription,
    fan_out,
    open_from_client,
    open_notification,
    serialize_publication,
    serialize_subscription,
)
from repro.sgx.enclave import EnclaveCode

# In-enclave cycle charge for serialising a publication for the fan-out
# (the matching walk is charged by the index through enclave memory, the
# sealing by :func:`repro.crypto.chunked.serial_seal_cycles`).
SERIALIZE_CYCLES_PER_BYTE = 2


def enclave_setup(ctx, record_bytes=512):
    """ECALL: initialise the matching index in enclave memory."""
    ctx.state["index"] = ContainmentIndex(
        memory=ctx.memory, record_bytes=record_bytes
    )
    ctx.state["subscriber_of"] = {}
    ctx.state["notification_sealer"] = NotificationSealer()
    return True


def enclave_subscribe(ctx, envelope):
    """ECALL: decrypt, authenticate, and index a subscription."""
    subscription, _payload = admit_subscription(ctx, envelope)
    ctx.state["index"].insert(subscription)
    ctx.state["subscriber_of"][subscription.subscription_id] = envelope.sender
    return subscription.subscription_id


def _open_publication(ctx, envelope):
    return deserialize_publication(open_from_client(ctx, envelope, "publish"))


def _publish(ctx, envelope):
    """Open, match and seal the notifications of one publication.

    The hot path: the publication is serialized exactly once per
    publish, and :func:`~repro.scbr.messages.fan_out` seals one envelope
    per matched subscriber.  Returns sorted ``(subscriber, envelope)``
    pairs.
    """
    publication = _open_publication(ctx, envelope)
    matched = ctx.state["index"].match(publication)
    if not matched:
        return []
    serialized = serialize_publication(publication)
    ctx.compute(SERIALIZE_CYCLES_PER_BYTE * len(serialized))
    subscriber_of = ctx.state["subscriber_of"]
    return fan_out(
        ctx, serialized, ((sid, subscriber_of[sid]) for sid in sorted(matched))
    )


def enclave_publish(ctx, envelope):
    """ECALL: decrypt, match, and emit one notification per subscriber."""
    return [
        notification for _subscriber, notification in _publish(ctx, envelope)
    ]


def enclave_publish_routed(ctx, envelope):
    """ECALL: like ``publish``, but says *who* each notification is for.

    Returns ``(subscriber_id, notification)`` pairs.  The subscriber id
    is metadata the broker already learns by delivering the envelope,
    so exposing it leaks nothing new -- but it lets a replicating
    broker keep a per-subscriber redelivery log for failover replay.
    """
    return _publish(ctx, envelope)


def enclave_unsubscribe(ctx, client_id, subscription_id):
    """ECALL: remove a subscription; only its owner may do so."""
    client_key(ctx, client_id)  # the client must hold a channel
    owner = ctx.state["subscriber_of"].get(subscription_id)
    if owner != client_id:
        raise IntegrityError(
            "client %r does not own subscription %r" % (client_id,
                                                        subscription_id)
        )
    ctx.state["index"].remove(subscription_id)
    del ctx.state["subscriber_of"][subscription_id]
    return True


def enclave_stats(ctx):
    """ECALL: operational counters (no content)."""
    index = ctx.state["index"]
    return {
        "subscriptions": len(index),
        "database_bytes": index.database_bytes,
        "visits_last_match": index.visits_last_match,
    }


def enclave_checkpoint(ctx):
    """ECALL: seal the subscription database to this enclave identity.

    The sealed blob can live on the untrusted disk; only the same
    router code on the same platform can restore it (MRENCLAVE
    policy).  Client channel keys are deliberately *not* persisted --
    they are ephemeral, and clients re-attest after a restart.
    """
    index = ctx.state["index"]
    payload = json.dumps(
        {
            "subscriptions": [
                serialize_subscription(subscription).decode("utf-8")
                for subscription in index.subscriptions()
            ],
            "subscriber_of": ctx.state["subscriber_of"],
        },
        sort_keys=True,
    ).encode("utf-8")
    return ctx.seal(payload)


def enclave_restore(ctx, blob, record_bytes=512):
    """ECALL: rebuild the subscription database from a sealed blob."""
    payload = json.loads(ctx.unseal(blob).decode("utf-8"))
    enclave_setup(ctx, record_bytes)
    index = ctx.state["index"]
    for raw in payload["subscriptions"]:
        index.insert(deserialize_subscription(raw.encode("utf-8")))
    ctx.state["subscriber_of"] = dict(payload["subscriber_of"])
    return len(index)


ROUTER_ENTRY_POINTS = {
    "setup": enclave_setup,
    "channel_offer": enclave_channel_offer,
    "channel_accept": enclave_channel_accept,
    "subscribe": enclave_subscribe,
    "unsubscribe": enclave_unsubscribe,
    "publish": enclave_publish,
    "publish_routed": enclave_publish_routed,
    "stats": enclave_stats,
    "checkpoint": enclave_checkpoint,
    "restore": enclave_restore,
}

ROUTER_CODE = EnclaveCode("scbr-router", ROUTER_ENTRY_POINTS)


class ScbrRouter:
    """The untrusted host side of the router."""

    def __init__(self, platform, record_bytes=512):
        self.platform = platform
        self.enclave = platform.load_enclave(ROUTER_CODE)
        self.enclave.ecall("setup", record_bytes)
        self.publications_routed = 0

    @property
    def measurement(self):
        """The router enclave's measurement (for client pinning)."""
        return self.enclave.measurement

    def channel_offer(self, client_id):
        """Relay a key-exchange offer; quotes it via the platform QE."""
        offer = self.enclave.ecall("channel_offer", client_id)
        quote = self.platform.quoting_enclave.quote(offer["report"])
        return {"dh_public": offer["dh_public"], "quote": quote}

    def channel_accept(self, client_id, client_public):
        """Relay the client's DH value into the enclave."""
        return self.enclave.ecall("channel_accept", client_id, client_public)

    def subscribe(self, envelope):
        """Route a subscription envelope into the enclave."""
        return self.enclave.ecall("subscribe", envelope)

    def unsubscribe(self, client_id, subscription_id):
        """Remove a subscription on behalf of its owner."""
        return self.enclave.ecall("unsubscribe", client_id, subscription_id)

    def publish(self, envelope):
        """Route a publication; returns sealed notifications."""
        notifications = self.enclave.ecall("publish", envelope)
        self.publications_routed += 1
        return notifications

    def publish_routed(self, envelope):
        """Route a publication; returns (subscriber_id, envelope) pairs."""
        routed = self.enclave.ecall("publish_routed", envelope)
        self.publications_routed += 1
        return routed

    def stats(self):
        """Operational counters from inside the enclave."""
        return self.enclave.ecall("stats")

    def checkpoint(self):
        """Sealed blob of the subscription database (untrusted-safe)."""
        return self.enclave.ecall("checkpoint")

    def restore(self, blob, record_bytes=512):
        """Rebuild state from a sealed checkpoint; returns the count."""
        return self.enclave.ecall("restore", blob, record_bytes)


class ScbrClient:
    """A publisher/subscriber endpoint."""

    def __init__(self, client_id, router, attestation_service,
                 expected_measurement=None):
        from repro.scbr.keyexchange import RouterKeyExchange

        self.client_id = client_id
        self.router = router
        self.key = RouterKeyExchange(router, attestation_service).establish(
            client_id,
            expected_measurement=expected_measurement or router.measurement,
        )

    def subscribe(self, subscription):
        """Encrypt and submit a subscription."""
        envelope = EncryptedEnvelope.seal(
            self.key, self.client_id, "subscribe",
            serialize_subscription(subscription),
        )
        return self.router.subscribe(envelope)

    def publish(self, publication):
        """Encrypt and submit a publication."""
        envelope = EncryptedEnvelope.seal(
            self.key, self.client_id, "publish",
            serialize_publication(publication),
        )
        return self.router.publish(envelope)

    def unsubscribe(self, subscription_id):
        """Withdraw one of this client's subscriptions."""
        return self.router.unsubscribe(self.client_id, subscription_id)

    def open_notification(self, envelope):
        """Decrypt a notification addressed to this client."""
        publication, _subscription_ids = open_notification(envelope, self.key)
        return publication

    def open_notification_detail(self, envelope):
        """Decrypt a notification; returns (publication, matched ids).

        The ids are this client's subscriptions the publication
        matched -- the batched fan-out delivers them alongside the
        publication instead of sending one duplicate envelope each.
        """
        return open_notification(envelope, self.key)
