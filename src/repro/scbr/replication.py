"""Replicated SCBR broker: standby failover with sealed-checkpoint replay.

The router enclave seals its subscription database to its own identity
(MRENCLAVE policy), so the blob can sit on untrusted storage and *any*
instance of the same measured router code on the same platform can
restore it.  :class:`ReplicatedBroker` exploits exactly that: after
every subscription change it checkpoints the active router; when an
ecall finds the active enclave destroyed (a crash injected by the
chaos layer or a :class:`~repro.chaos.FaultSchedule`), it promotes a
standby -- a fresh enclave of the same code -- restores the sealed
checkpoint, and has every client re-attest.  Channel keys are
deliberately not persisted, so failover forces fresh key exchanges;
the in-flight operation is then re-sealed under the new key and
replayed.

Delivery is *exactly-once* across failover:

- the broker logs every routed notification per subscriber with a
  broker-side sequence number (the envelope stays ciphertext -- the
  log leaks only what delivering it would);
- :class:`FailoverClient` keeps its full channel-key history, so it
  can still open notifications sealed before a failover;
- clients dedup twice: on broker sequence numbers (a replayed envelope
  is dropped) and on the ``(_publisher, _pub_seq)`` attributes
  publishers stamp into publications (the same publication re-routed
  after a retried publish is dropped);
- ``sync()`` pulls any logged sequences the client never saw (live
  pushes dropped by chaos, or pushes lost in the failover window).
"""

from repro.errors import BrokerUnavailableError, EnclaveLostError
from repro.crypto.primitives import sha256
from repro.scbr.filters import Publication
from repro.scbr.messages import (
    EncryptedEnvelope,
    open_notification,
    serialize_publication,
    serialize_subscription,
)
from repro.scbr.router import ScbrRouter, client_channel_key


class ReplicatedBroker:
    """Primary/standby pair of router enclaves behind one endpoint.

    Presents the :class:`~repro.scbr.router.ScbrRouter` surface clients
    attest against (``measurement``, ``enclave``) plus sealed-operation
    entry points that survive the active replica dying mid-call.
    """

    name = "scbr-broker"
    RETENTION = 1024    # sealed notifications kept per subscriber

    def __init__(self, platform, env=None, chaos=None, orchestrator=None):
        self.platform = platform
        self.env = env
        self.chaos = chaos
        self.orchestrator = orchestrator
        self.active = ScbrRouter(platform)
        self._checkpoint = self.active.checkpoint()
        self.clients = {}
        self.failovers = 0
        self.failover_latencies = []
        self._failed_at = None
        self._logs = {}        # subscriber_id -> [(seq, envelope), ...]
        self._next_seq = {}    # subscriber_id -> next broker sequence
        self.notifications_delivered = 0
        self.notifications_dropped = 0
        self.notifications_replayed = 0

    # -- the router surface clients attest against ---------------------

    @property
    def measurement(self):
        """Measurement of the active replica (identical on standby:
        same code, so clients may keep pinning one value)."""
        return self.active.measurement

    @property
    def enclave(self):
        """The active replica's enclave (what clients key against)."""
        return self.active.enclave

    def stats(self):
        return self.active.stats()

    # -- failover machinery --------------------------------------------

    def register(self, client):
        """Track a client so failover can force its re-attestation."""
        self.clients[client.client_id] = client

    def fail_active(self):
        """Destroy the active replica (fault-injection entry point)."""
        self._failed_at = self.env.now if self.env is not None else None
        self.active.enclave.destroy()

    def _call(self, attempt):
        """Run ``attempt`` once; on a lost replica, fail over and replay.

        ``attempt`` is a closure that seals its message under the
        *current* client key, so the replay after ``_failover`` is
        automatically re-sealed under the re-attested key.
        """
        try:
            return attempt()
        except (EnclaveLostError, BrokerUnavailableError):
            self._failover()
            return attempt()

    def _failover(self):
        """Promote a standby: restore the checkpoint, re-attest clients."""
        detected_at = self.env.now if self.env is not None else None
        self.failovers += 1
        self.active = ScbrRouter(self.platform)
        if self._checkpoint is not None:
            self.active.restore(self._checkpoint)
        for client in self.clients.values():
            client.reattach(self)
        recovered_at = self.env.now if self.env is not None else None
        if self._failed_at is not None and recovered_at is not None:
            self.failover_latencies.append(recovered_at - self._failed_at)
        if self.orchestrator is not None:
            self.orchestrator.report_anomaly(
                self.name, "broker-failover", onset=self._failed_at
            )
        self._failed_at = None

    # -- sealed operations ---------------------------------------------

    def subscribe_from(self, client, subscription):
        """Seal and route a subscription; checkpoint the new database."""
        def attempt():
            envelope = EncryptedEnvelope.seal(
                client.key, client.client_id, "subscribe",
                serialize_subscription(subscription),
            )
            return self.active.subscribe(envelope)

        subscription_id = self._call(attempt)
        self._checkpoint = self.active.checkpoint()
        return subscription_id

    def unsubscribe_from(self, client, subscription_id):
        """Seal and route an unsubscribe; checkpoint the new database."""
        def attempt():
            envelope = EncryptedEnvelope.seal(
                client.key, client.client_id, "unsubscribe",
                subscription_id.encode("utf-8"),
            )
            return self.active.unsubscribe(envelope)

        result = self._call(attempt)
        self._checkpoint = self.active.checkpoint()
        return result

    def publish_from(self, client, publication):
        """Seal, route, log, and push one publication's notifications."""
        def attempt():
            envelope = EncryptedEnvelope.seal(
                client.key, client.client_id, "publish",
                serialize_publication(publication),
            )
            return self.active.publish_routed(envelope)

        routed = self._call(attempt)
        delivered = []
        for subscriber_id, envelope in routed:
            sequence = self._next_seq.get(subscriber_id, 0)
            self._next_seq[subscriber_id] = sequence + 1
            log = self._logs.setdefault(subscriber_id, [])
            log.append((sequence, envelope))
            if len(log) > self.RETENTION:
                del log[0]
            if self.chaos is not None and self.chaos.drops_notification(
                subscriber_id, sequence
            ):
                self.notifications_dropped += 1
                continue
            self._push(subscriber_id, sequence, envelope)
            delivered.append(subscriber_id)
        return delivered

    def _push(self, subscriber_id, sequence, envelope):
        target = self.clients.get(subscriber_id)
        if target is not None:
            target.deliver(sequence, envelope)
            self.notifications_delivered += 1

    def replay(self, subscriber_id, have=frozenset()):
        """Redeliver logged notifications the subscriber has not seen.

        The repair path is a pull over a request/response channel, so
        it is reliable (unlike the chaos-exposed live push); envelopes
        redeliver as originally sealed -- possibly under a pre-failover
        key the client still holds.
        """
        replayed = 0
        target = self.clients.get(subscriber_id)
        if target is None:
            return 0
        for sequence, envelope in self._logs.get(subscriber_id, []):
            if sequence in have:
                continue
            target.deliver(sequence, envelope)
            replayed += 1
        self.notifications_replayed += replayed
        return replayed


class FailoverClient:
    """A publisher/subscriber that survives broker failover.

    Keeps every channel key it ever established (newest last) so
    notifications sealed before a failover still open; stamps outgoing
    publications with ``(_publisher, _pub_seq)`` so receivers can dedup
    a publication that was routed twice by a retried publish (the
    publisher as a number drawn from its id: a router enclave admits
    numeric attribute values only); and
    maintains an exactly-once ``inbox`` with both broker-sequence and
    publication dedup.
    """

    def __init__(self, client_id, broker, attestation_service,
                 expected_measurement=None):
        self.client_id = client_id
        self.broker = broker
        self.attestation_service = attestation_service
        self.expected_measurement = (
            expected_measurement or broker.measurement
        )
        self._keys = []
        self.reattachments = 0
        self.inbox = []
        self._seen_sequences = set()
        self._seen_publications = set()
        self.duplicates_discarded = 0
        self._pub_seq = 0
        self._publisher_tag = int.from_bytes(
            sha256(client_id.encode("utf-8"))[:6], "big"
        )
        self._attach(broker)
        broker.register(self)

    @property
    def key(self):
        """The current channel key (to the active replica)."""
        return self._keys[-1]

    def _attach(self, router):
        self._keys.append(client_channel_key(
            router.enclave, self.client_id, self.attestation_service,
            self.expected_measurement,
        ))

    def reattach(self, router):
        """Re-attest after failover; the old key stays in the history."""
        self._attach(router)
        self.reattachments += 1

    # -- publishing ----------------------------------------------------

    def publish(self, publication):
        """Stamp, seal, and publish; returns the notified subscribers."""
        stamped = Publication(
            attributes=dict(
                publication.attributes,
                _publisher=self._publisher_tag,
                _pub_seq=self._pub_seq,
            ),
            payload=publication.payload,
        )
        self._pub_seq += 1
        return self.broker.publish_from(self, stamped)

    def subscribe(self, subscription):
        return self.broker.subscribe_from(self, subscription)

    def unsubscribe(self, subscription_id):
        return self.broker.unsubscribe_from(self, subscription_id)

    # -- receiving -----------------------------------------------------

    def open_notification(self, envelope):
        """Open a notification with the newest key that authenticates it."""
        error = None
        for key in reversed(self._keys):
            try:
                publication, _subscription_ids = open_notification(
                    envelope, key
                )
                return publication
            except Exception as exc:  # IntegrityError; try an older key
                error = exc
        raise error

    def deliver(self, sequence, envelope):
        """Exactly-once sink for broker pushes and replays."""
        if sequence in self._seen_sequences:
            self.duplicates_discarded += 1
            return False
        publication = self.open_notification(envelope)
        self._seen_sequences.add(sequence)
        identity = (
            publication.attributes.get("_publisher"),
            publication.attributes.get("_pub_seq"),
        )
        if identity != (None, None) and identity in self._seen_publications:
            self.duplicates_discarded += 1
            return False
        self._seen_publications.add(identity)
        self.inbox.append(publication)
        return True

    def sync(self):
        """Pull any logged notifications this client never received."""
        return self.broker.replay(self.client_id, have=self._seen_sequences)
