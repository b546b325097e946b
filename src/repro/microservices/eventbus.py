"""The event bus connecting micro-services.

Topic-based publish/subscribe over the discrete-event kernel: messages
are delivered to all subscribers after a configurable network latency,
with per-topic FIFO ordering (two publications to the same topic arrive
at every subscriber in publication order).

The bus itself is *untrusted infrastructure*: what travels on it are
:class:`SealedEvent` objects -- AEAD ciphertexts under per-topic keys
that only the enclaves of authorised services hold (delivered via their
SCFs).  The bus can reorder-attack, tamper, or snoop; the enclave-side
``open`` calls detect everything but message dropping, which surfaces
as sequence gaps.

Detection alone aborts the consumer; recovery needs a redelivery path.
:class:`ReliableEventBus` retains recently published sealed events, and
:class:`ReliableSubscriber` turns gap detection into NACKs against that
retained window: out-of-order arrivals are buffered, missing sequences
are re-requested (bounded attempts, re-checked on a virtual-time
timer), and the application handler sees every event exactly once, in
order.  Retention holds only ciphertext, so a compromised bus learns
nothing new from the redelivery buffer.
"""

from collections import OrderedDict

from repro.errors import ConfigurationError, IntegrityError
from repro.telemetry import DEFAULT_SECONDS_BUCKETS, default_registry


class SealedEvent:
    """An encrypted event on the bus."""

    def __init__(self, topic, sender, sequence, blob):
        self.topic = topic
        self.sender = sender
        self.sequence = sequence
        self.blob = blob

    @staticmethod
    def _aad(topic, sender, sequence):
        return ("bus|%s|%s|%d" % (topic, sender, sequence)).encode("utf-8")

    @classmethod
    def seal(cls, key, topic, sender, sequence, plaintext):
        """Encrypt ``plaintext`` as event ``sequence`` on ``topic``."""
        blob = key.seal(plaintext, cls._aad(topic, sender, sequence))
        return cls(topic, sender, sequence, blob)

    def open(self, key):
        """Decrypt; raises if topic, sender, or sequence was altered."""
        return key.open(
            self.blob, self._aad(self.topic, self.sender, self.sequence),
            what="event %d on %r from %r"
            % (self.sequence, self.topic, self.sender),
        )


class SequenceTracker:
    """Consumer-side gap detection for a topic.

    The bus cannot forge or reorder sealed events (the AEAD binds the
    sequence number), but a hostile broker *can* silently drop them.
    Tracking the per-topic sequence makes drops visible: feed every
    received event and read :attr:`missing`.
    """

    def __init__(self, topic):
        self.topic = topic
        self._expected = 0
        self.missing = []
        self.received = 0

    def observe(self, event):
        """Record one received event; returns newly detected gaps."""
        if event.topic != self.topic:
            raise IntegrityError(
                "tracker for %r fed an event on %r" % (self.topic, event.topic)
            )
        gaps = []
        if event.sequence > self._expected:
            gaps = list(range(self._expected, event.sequence))
            self.missing.extend(gaps)
        elif event.sequence < self._expected:
            raise IntegrityError(
                "sequence %d replayed or reordered on %r"
                % (event.sequence, self.topic)
            )
        self._expected = event.sequence + 1
        self.received += 1
        return gaps


class LossyBus:
    """Test double: wraps an :class:`EventBus` and drops chosen events.

    Models a malicious or faulty broker; used by the reliability tests
    to show consumers detect (not silently survive) message loss.
    """

    def __init__(self, bus, drop_sequences=(), drop_topic=None):
        self.bus = bus
        self.drop_sequences = set(drop_sequences)
        self.drop_topic = drop_topic
        self.dropped = 0

    def __getattr__(self, name):
        return getattr(self.bus, name)

    def publish(self, event):
        if event.sequence in self.drop_sequences and (
            self.drop_topic is None or event.topic == self.drop_topic
        ):
            self.dropped += 1
            return None
        return self.bus.publish(event)


class EventBus:
    """Topic pub/sub with virtual latency and FIFO per topic."""

    def __init__(self, env, latency=0.0005):
        self.env = env
        self.latency = latency
        self._subscribers = {}
        self._sequences = {}
        # The plain attributes stay: tests and benchmark reports read
        # them, and the default registry is a no-op.  The registry
        # handles mirror them for enabled-telemetry runs.
        self.delivered = 0
        self.published = 0
        registry = default_registry()
        self._tel_published = registry.counter("bus.published")
        self._tel_delivered = registry.counter("bus.delivered")

    def subscribe(self, topic, handler):
        """Register ``handler(event)`` for ``topic``; returns unsubscribe."""
        handlers = self._subscribers.setdefault(topic, [])
        handlers.append(handler)

        def unsubscribe():
            handlers.remove(handler)

        return unsubscribe

    def next_sequence(self, topic):
        """Allocate the next per-topic sequence number."""
        sequence = self._sequences.get(topic, 0)
        self._sequences[topic] = sequence + 1
        return sequence

    def publish(self, event):
        """Queue ``event`` for delivery after the bus latency."""
        self.published += 1
        self._tel_published.inc()
        handlers = list(self._subscribers.get(event.topic, ()))
        timeout = self.env.timeout(self.latency, value=event)

        def deliver(fired):
            for handler in handlers:
                self.delivered += 1
                self._tel_delivered.inc()
                handler(fired.value)

        timeout.callbacks.append(deliver)
        return timeout

    def publish_many(self, events):
        """Queue a burst of events behind one shared latency timer.

        A high-rate publisher flushing a batch pays one kernel timeout
        for the whole burst instead of one per event; delivery order
        follows the list order, so per-topic FIFO is preserved.  The
        subscriber snapshot is taken at publish time, exactly as in
        :meth:`publish`.
        """
        events = list(events)
        self.published += len(events)
        self._tel_published.inc(len(events))
        plan = [
            (event, list(self._subscribers.get(event.topic, ())))
            for event in events
        ]
        timeout = self.env.timeout(self.latency, value=events)

        def deliver(_fired):
            for event, handlers in plan:
                for handler in handlers:
                    self.delivered += 1
                    self._tel_delivered.inc()
                    handler(event)

        timeout.callbacks.append(deliver)
        return timeout


class ReliableEventBus(EventBus):
    """An event bus retaining sealed events for NACK-based redelivery.

    Publishers behave exactly as on :class:`EventBus`; additionally the
    bus keeps the last ``retention`` sealed events per topic so a
    consumer that detects a sequence gap can request redelivery.  The
    retained window is ciphertext only -- the bus still cannot read,
    forge, or reorder anything undetected.
    """

    def __init__(self, env, latency=0.0005, retention=1024):
        if retention < 1:
            raise ConfigurationError("retention must be >= 1")
        super().__init__(env, latency=latency)
        self.retention = retention
        self._retained = {}
        self.redelivered = 0
        self._tel_redelivered = default_registry().counter("bus.redelivered")

    def _retain(self, event):
        window = self._retained.setdefault(event.topic, OrderedDict())
        window[event.sequence] = event
        while len(window) > self.retention:
            window.popitem(last=False)

    def publish(self, event):
        self._retain(event)
        return super().publish(event)

    def publish_many(self, events):
        events = list(events)
        for event in events:
            self._retain(event)
        return super().publish_many(events)

    def retained_sequences(self, topic):
        """Sequences currently redeliverable for ``topic``."""
        return list(self._retained.get(topic, ()))

    def redeliver(self, topic, sequences, handler=None):
        """Redeliver retained events after the bus latency.

        ``handler`` targets one consumer (the NACK issuer); without it
        every subscriber of the topic receives the redelivery.  Returns
        the sequences actually found in the retained window -- a
        sequence that has aged out is permanently lost and the caller
        must surface it.
        """
        window = self._retained.get(topic, {})
        found = []
        for sequence in sequences:
            event = window.get(sequence)
            if event is None:
                continue
            found.append(sequence)
            self.redelivered += 1
            self._tel_redelivered.inc()
            targets = (
                [handler] if handler is not None
                else list(self._subscribers.get(topic, ()))
            )
            timeout = self.env.timeout(self.latency, value=event)

            def deliver(fired, targets=targets):
                for target in targets:
                    self.delivered += 1
                    target(fired.value)

            timeout.callbacks.append(deliver)
        return found


class ReliableSubscriber:
    """Exactly-once, in-order consumption over a lossy bus.

    Wraps a handler: arrivals ahead of the expected sequence are
    buffered, detected gaps are NACKed against the bus's retained
    window, and duplicates (redelivery races, hostile duplication) are
    discarded.  Each missing sequence is re-requested on a virtual-time
    timer up to ``max_nacks`` times, after which it is recorded in
    :attr:`lost` -- loss becomes an explicit, bounded outcome instead
    of a silent gap or an unbounded wait.

    ``orchestrator`` (optional) receives ``report_anomaly(topic,
    "gap")`` on first detection of each gap, wiring bus-level faults
    into the same reaction plane as service anomalies.
    """

    def __init__(self, bus, topic, handler, max_nacks=8, orchestrator=None):
        self.bus = bus
        self.topic = topic
        self.handler = handler
        self.max_nacks = max_nacks
        self.nack_timeout = bus.latency * 4
        self.orchestrator = orchestrator
        self._expected = 0
        self._pending = {}
        self._nack_counts = {}
        self._gap_detected_at = {}
        self.delivered = 0
        self.duplicates = 0
        self.nacks = 0
        self.lost = []
        self._lost_set = set()
        self.recovery_latencies = []
        registry = default_registry()
        self._tel_delivered = registry.counter(
            "bus.subscriber.delivered", topic=topic
        )
        self._tel_duplicates = registry.counter(
            "bus.subscriber.duplicates", topic=topic
        )
        self._tel_nacks = registry.counter("bus.subscriber.nacks", topic=topic)
        self._tel_lost = registry.counter("bus.subscriber.lost", topic=topic)
        self._tel_recovery = registry.histogram(
            "bus.gap_recovery_seconds", buckets=DEFAULT_SECONDS_BUCKETS
        )
        bus.subscribe(topic, self.observe)

    def observe(self, event):
        """Feed one received sealed event (the bus calls this)."""
        if event.topic != self.topic:
            raise IntegrityError(
                "subscriber for %r fed an event on %r"
                % (self.topic, event.topic)
            )
        sequence = event.sequence
        if sequence < self._expected or sequence in self._pending:
            self.duplicates += 1
            self._tel_duplicates.inc()
            return
        self._pending[sequence] = event
        self._drain()
        for missing in self._missing_sequences():
            if missing not in self._nack_counts:
                self._gap_detected_at[missing] = self.bus.env.now
                if self.orchestrator is not None:
                    self.orchestrator.report_anomaly(self.topic, "gap")
                self._nack(missing)

    def _missing_sequences(self):
        if not self._pending:
            return []
        horizon = max(self._pending)
        return [
            sequence for sequence in range(self._expected, horizon)
            if sequence not in self._pending
        ]

    def _drain(self):
        while True:
            if self._expected in self._pending:
                event = self._pending.pop(self._expected)
                detected = self._gap_detected_at.pop(self._expected, None)
                if detected is not None:
                    self.recovery_latencies.append(self.bus.env.now - detected)
                    self._tel_recovery.observe(self.bus.env.now - detected)
                self._nack_counts.pop(self._expected, None)
                self._expected += 1
                self.delivered += 1
                self._tel_delivered.inc()
                self.handler(event)
            elif self._expected in self._lost_set:
                # A hole we already gave up on: step over it so later
                # buffered events still reach the handler in order.
                self._expected += 1
            else:
                return

    def _nack(self, sequence):
        attempts = self._nack_counts.get(sequence, 0)
        if attempts >= self.max_nacks:
            if sequence not in self._lost_set:
                # Give up: record the loss explicitly and release
                # in-order delivery past the hole.
                self.lost.append(sequence)
                self._lost_set.add(sequence)
                self._tel_lost.inc()
                self._gap_detected_at.pop(sequence, None)
                self._drain()
            return
        self._nack_counts[sequence] = attempts + 1
        self.nacks += 1
        self._tel_nacks.inc()
        self.bus.redeliver(self.topic, [sequence], handler=self.observe)
        self.bus.env.call_later(
            self.nack_timeout, lambda: self._recheck(sequence)
        )

    def _recheck(self, sequence):
        if sequence < self._expected or sequence in self._pending:
            return  # recovered in the meantime
        self._nack(sequence)
