"""A network of SCBR brokers with covering-based forwarding.

Content-based routing proper: brokers form an acyclic overlay; each
broker matches inside its own enclave and forwards publications only on
links behind which a matching subscription lives.  Subscription
propagation applies the classic covering optimisation (Siena): a
subscription is **not** forwarded over a link if a subscription already
forwarded over that link covers it -- the upstream broker would route a
superset of the traffic anyway.  This shrinks the routing state and the
subscription traffic the paper's Section V-B alludes to with
"containment relations between filters".

Confidentiality: every link has its own AEAD key; publications and
subscriptions are re-sealed per hop, so a compromised link observes
only ciphertext and per-hop envelope counts.
"""

from repro.errors import ConfigurationError, IntegrityError
from repro.crypto.aead import AeadKey
from repro.scbr.filters import Publication
from repro.scbr.index import ContainmentIndex
from repro.scbr.messages import (
    EncryptedEnvelope,
    deserialize_publication,
    deserialize_subscription,
    serialize_publication,
    serialize_subscription,
)


class BrokerLink:
    """One directed half of a broker-to-broker connection."""

    def __init__(self, source, destination, key):
        self.source = source
        self.destination = destination
        self.key = key
        self.publications_forwarded = 0
        self.subscriptions_forwarded = 0
        self.subscriptions_suppressed = 0

    def seal_subscription(self, subscription):
        self.subscriptions_forwarded += 1
        return EncryptedEnvelope.seal(
            self.key,
            self.source.name,
            "subscribe",
            serialize_subscription(subscription),
        )

    def seal_publication(self, publication, serialized=None):
        """Seal for this hop; ``serialized`` lets a broker forwarding to
        several neighbours serialize the publication once, not per link."""
        self.publications_forwarded += 1
        if serialized is None:
            serialized = serialize_publication(publication)
        return EncryptedEnvelope.seal(
            self.key,
            self.source.name,
            "publish",
            serialized,
        )


class Broker:
    """One broker: a local matching enclave plus per-link routing state."""

    def __init__(self, name):
        self.name = name
        # Local subscriptions: subscription_id -> client.
        self.local_subscribers = {}
        self.index = ContainmentIndex()
        # subscription_id -> origin ("local" or a neighbour name).
        self._origin = {}
        # Per neighbour: subscriptions we forwarded to them.
        self._forwarded = {}
        self.links = {}
        self.deliveries = []
        self.matches_performed = 0

    def connect(self, other, key=None):
        """Create the two directed links between this broker and other."""
        if other.name in self.links:
            raise ConfigurationError(
                "brokers %s and %s already connected" % (self.name, other.name)
            )
        key = key or AeadKey.generate()
        self.links[other.name] = BrokerLink(self, other, key)
        other.links[self.name] = BrokerLink(other, self, key)

    def _neighbours(self):
        return list(self.links)

    # --- subscription plane ---

    def subscribe_local(self, subscription, client):
        """A client attached to this broker subscribes."""
        self.local_subscribers[subscription.subscription_id] = client
        self._admit(subscription, origin="local")

    def _admit(self, subscription, origin):
        self.index.insert(subscription)
        self._origin[subscription.subscription_id] = origin
        # Propagate to every neighbour except where it came from,
        # applying the covering optimisation per link.
        for neighbour in self._neighbours():
            if neighbour == origin:
                continue
            forwarded = self._forwarded.setdefault(neighbour, [])
            link = self.links[neighbour]
            if any(existing.covers(subscription) for existing in forwarded):
                link.subscriptions_suppressed += 1
                continue
            forwarded.append(subscription)
            envelope = link.seal_subscription(subscription)
            link.destination.receive_subscription(envelope, from_broker=self.name)

    def receive_subscription(self, envelope, from_broker):
        """A neighbour forwarded a subscription to us."""
        link = self.links[from_broker]
        if envelope.kind != "subscribe":
            raise IntegrityError("expected a subscription envelope")
        subscription = deserialize_subscription(envelope.open(link.key))
        self._admit(subscription, origin=from_broker)

    # --- publication plane ---

    def publish_local(self, publication):
        """A client attached to this broker publishes."""
        return self._route(publication, origin=None)

    def receive_publication(self, envelope, from_broker):
        """A neighbour forwarded a publication to us."""
        link = self.links[from_broker]
        if envelope.kind != "publish":
            raise IntegrityError("expected a publication envelope")
        publication = deserialize_publication(envelope.open(link.key))
        return self._route(publication, origin=from_broker)

    def _route(self, publication, origin):
        """Match locally, deliver to local clients, forward per link."""
        self.matches_performed += 1
        matched = self.index.match(publication)
        forward_to = set()
        delivered = []
        for subscription_id in sorted(matched):
            where = self._origin[subscription_id]
            if where == "local":
                client = self.local_subscribers[subscription_id]
                self.deliveries.append((client, subscription_id, publication))
                delivered.append((client, subscription_id))
            elif where != origin:
                forward_to.add(where)
        serialized = None
        for neighbour in sorted(forward_to):
            if serialized is None:
                serialized = serialize_publication(publication)
            link = self.links[neighbour]
            envelope = link.seal_publication(publication, serialized)
            delivered.extend(
                link.destination.receive_publication(envelope, self.name)
            )
        return delivered


class ScbrNetwork:
    """An acyclic broker overlay."""

    def __init__(self):
        self.brokers = {}

    def add_broker(self, name):
        """Create a broker."""
        if name in self.brokers:
            raise ConfigurationError("duplicate broker %r" % name)
        broker = Broker(name)
        self.brokers[name] = broker
        return broker

    def connect(self, first, second):
        """Link two brokers (the overlay must stay acyclic)."""
        if self._reaches(first, second):
            raise ConfigurationError(
                "connecting %s-%s would create a cycle" % (first, second)
            )
        self.brokers[first].connect(self.brokers[second])

    def _reaches(self, start, goal):
        seen = set()
        frontier = [start]
        while frontier:
            name = frontier.pop()
            if name == goal:
                return True
            if name in seen or name not in self.brokers:
                continue
            seen.add(name)
            frontier.extend(self.brokers[name].links)
        return False

    def subscribe(self, broker_name, subscription, client):
        """Attach a client subscription at a broker."""
        self.brokers[broker_name].subscribe_local(subscription, client)

    def publish(self, broker_name, attributes, payload=b""):
        """Publish at a broker; returns [(client, subscription_id), ...]."""
        publication = Publication(attributes=attributes, payload=payload)
        return self.brokers[broker_name].publish_local(publication)

    def forwarding_stats(self):
        """Aggregated link counters (for the routing ablation)."""
        forwarded = suppressed = publications = 0
        for broker in self.brokers.values():
            for link in broker.links.values():
                forwarded += link.subscriptions_forwarded
                suppressed += link.subscriptions_suppressed
                publications += link.publications_forwarded
        # Each undirected connection contributes two directed links, but
        # counters are incremented on the sending side only.
        return {
            "subscriptions_forwarded": forwarded,
            "subscriptions_suppressed": suppressed,
            "publications_forwarded": publications,
        }
