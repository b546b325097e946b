"""Seeded, order-independent fault injection.

The injector answers one kind of question -- "does fault *F* strike
coordinate *C* on attempt *A*?" -- by hashing the experiment seed with
the fault kind and coordinates (:func:`repro.sim.rng.derive_seed`) and
comparing a single uniform draw against the configured rate.  Because
every decision is a pure function of ``(seed, kind, coordinates)``, the
same seed yields the *same faults* regardless of call order: a driver
may ask about its tasks in any order and two runs still produce
identical injection logs, which is what the chaos determinism check in
``repro.cli smoke --chaos`` asserts.

Including the attempt number in the coordinates is what makes recovery
terminate: a frame corrupted on attempt 0 is an independent draw on
attempt 1, so with rate < 1 a bounded retry budget converges.
"""

from dataclasses import dataclass, fields

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStream, derive_seed


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates (all probabilities in [0, 1]) and the chaos seed."""

    seed: int = 0
    # Map/reduce worker crashes, per (task, attempt).
    mapper_crash_rate: float = 0.0
    reducer_crash_rate: float = 0.0
    # Event-bus message faults, per (topic, sequence, attempt).
    message_drop_rate: float = 0.0
    message_duplicate_rate: float = 0.0
    message_delay_rate: float = 0.0
    message_delay_max: float = 0.002     # extra virtual seconds
    # Broker-plane faults.
    notification_drop_rate: float = 0.0  # per (subscriber, sequence)
    # Sharded matching-plane faults.
    shard_crash_rate: float = 0.0        # per (shard, operation)
    heartbeat_loss_rate: float = 0.0     # per (shard, beat sequence)
    # Provisioning-plane faults, per (machine fingerprint, attempt):
    # the untrusted host loses a resumption ticket, forcing the full
    # attested re-join for that machine.
    ticket_loss_rate: float = 0.0
    # Cluster-node faults, per (node, operation).
    node_crash_rate: float = 0.0         # whole-machine failure
    node_partition_rate: float = 0.0     # network partition onset
    node_partition_max: float = 0.005    # longest partition, virtual s
    # Transfer-stream corruption, per (transfer, frame, attempt).
    frame_corruption_rate: float = 0.0
    # Untrusted-store hiccups, per (operation, path, attempt).
    storage_failure_rate: float = 0.0
    # Syscall-shield stalls, per call index.
    syscall_stall_rate: float = 0.0
    syscall_stall_cycles: int = 50_000

    def __post_init__(self):
        # Every field named *_rate is a probability -- discovered from
        # the dataclass itself, so a newly added fault rate can never
        # silently skip validation.
        for spec in fields(self):
            if not spec.name.endswith("_rate"):
                continue
            rate = getattr(self, spec.name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    "%s must be a probability, got %r" % (spec.name, rate)
                )


class ChaosInjector:
    """Deterministic fault decisions plus the log of those that struck."""

    def __init__(self, config=None, **overrides):
        if config is None:
            config = ChaosConfig(**overrides)
        elif overrides:
            raise ConfigurationError("pass either a config or overrides")
        self.config = config
        self._log = []

    # --- the decision core ---

    def _draw(self, kind, *coordinates):
        """Uniform [0, 1) draw, a pure function of (seed, kind, coords)."""
        return RandomStream(
            derive_seed(self.config.seed, "chaos", kind, *coordinates)
        ).random()

    def _happens(self, rate, kind, *coordinates):
        if rate <= 0.0:
            return False
        if self._draw(kind, *coordinates) >= rate:
            return False
        self._record(kind, coordinates)
        return True

    def _record(self, kind, coordinates, detail=None):
        self._log.append((kind, tuple(coordinates), detail))

    # --- decisions, one per fault class ---

    def mapper_crashes(self, split_index, attempt):
        """Does the mapper for ``split_index`` crash on this attempt?"""
        return self._happens(
            self.config.mapper_crash_rate, "mapper-crash", split_index, attempt
        )

    def reducer_crashes(self, partition, attempt):
        """Does the reducer for ``partition`` crash on this attempt?"""
        return self._happens(
            self.config.reducer_crash_rate, "reducer-crash", partition, attempt
        )

    def drops_message(self, topic, sequence, attempt=0):
        """Is bus event (topic, sequence) dropped on this delivery attempt?"""
        return self._happens(
            self.config.message_drop_rate, "message-drop",
            topic, sequence, attempt,
        )

    def duplicates_message(self, topic, sequence):
        """Is bus event (topic, sequence) delivered twice?"""
        return self._happens(
            self.config.message_duplicate_rate, "message-duplicate",
            topic, sequence,
        )

    def delay_for_message(self, topic, sequence):
        """Extra delivery delay for (topic, sequence); 0.0 for none."""
        config = self.config
        if config.message_delay_rate <= 0.0:
            return 0.0
        stream = RandomStream(
            derive_seed(config.seed, "chaos", "message-delay", topic, sequence)
        )
        if stream.random() >= config.message_delay_rate:
            return 0.0
        delay = stream.uniform(0.0, config.message_delay_max)
        self._record("message-delay", (topic, sequence), delay)
        return delay

    def drops_notification(self, subscriber, sequence):
        """Is the broker's push of notification ``sequence`` lost?"""
        return self._happens(
            self.config.notification_drop_rate, "notification-drop",
            subscriber, sequence,
        )

    def crashes_shard(self, shard_id, operation):
        """Does shard enclave ``shard_id`` crash before ``operation``?

        ``operation`` is a per-plane operation counter (the publish or
        mutation index), so the crash schedule is a pure function of
        the seed and the workload position, not of wall-clock timing.
        """
        return self._happens(
            self.config.shard_crash_rate, "shard-crash", shard_id, operation
        )

    def drops_heartbeat(self, shard_id, beat):
        """Is heartbeat ``beat`` from shard ``shard_id`` lost in flight?

        A lost heartbeat leaves the shard alive but silent -- the
        failure detector's false-positive fodder.
        """
        return self._happens(
            self.config.heartbeat_loss_rate, "heartbeat-loss", shard_id, beat
        )

    def loses_ticket(self, fingerprint, attempt):
        """Has the host lost machine ``fingerprint``'s resumption
        ticket by re-join ``attempt``?

        A lost ticket is a liveness fault only: the provisioner falls
        back to the full attested handshake and the machine re-earns a
        ticket -- no key material is at stake, the host never held any.
        """
        return self._happens(
            self.config.ticket_loss_rate, "ticket-loss", fingerprint, attempt
        )

    def crashes_node(self, node_name, operation):
        """Does the whole machine ``node_name`` fail before ``operation``?

        A node crash is the *correlated* fault: every shard enclave the
        node hosts dies in the same instant, which is what the node
        failure detector distinguishes from independent process deaths.
        """
        return self._happens(
            self.config.node_crash_rate, "node-crash", node_name, operation
        )

    def partition_for_node(self, node_name, operation):
        """Partition duration for ``node_name`` at ``operation``; 0.0
        for none.  The duration draw rides the same stream as the
        decision, so one seed fixes both."""
        config = self.config
        if config.node_partition_rate <= 0.0:
            return 0.0
        stream = RandomStream(
            derive_seed(config.seed, "chaos", "node-partition",
                        node_name, operation)
        )
        if stream.random() >= config.node_partition_rate:
            return 0.0
        duration = stream.uniform(0.0, config.node_partition_max)
        self._record("node-partition", (node_name, operation), duration)
        return duration

    def corrupts_frame(self, transfer_id, frame_index, attempt=0):
        """Is transfer frame ``frame_index`` corrupted in flight?"""
        return self._happens(
            self.config.frame_corruption_rate, "frame-corruption",
            transfer_id, frame_index, attempt,
        )

    def storage_fails(self, operation, path, attempt=0):
        """Does the untrusted store reject this I/O operation?"""
        return self._happens(
            self.config.storage_failure_rate, "storage-failure",
            operation, path, attempt,
        )

    def stalls_syscall(self, call_index):
        """Extra kernel-side cycles for syscall ``call_index`` (0 if none)."""
        if self._happens(
            self.config.syscall_stall_rate, "syscall-stall", call_index
        ):
            return self.config.syscall_stall_cycles
        return 0

    # --- observability ---

    @property
    def injections(self):
        """Number of faults injected so far."""
        return len(self._log)

    def log(self):
        """Sorted snapshot of injected faults (deterministic across runs).

        Sorted because the order entries were appended in is the
        driver's call order; the *set* of injections is seed-determined.
        """
        return sorted(self._log, key=lambda entry: (entry[0], entry[1]))

    def counts(self):
        """Injection totals per fault kind."""
        totals = {}
        for kind, _coords, _detail in self.log():
            totals[kind] = totals.get(kind, 0) + 1
        return totals


class FaultSchedule:
    """Faults fired at planned virtual times, hooked into the kernel.

    Probabilistic injection (the :class:`ChaosInjector`) covers steady
    background faults; experiments also need *scripted* failures -- kill
    this broker at t=0.25, crash that service at t=0.1 -- scheduled on
    the discrete-event :class:`~repro.sim.events.Environment` so they
    interleave deterministically with the workload.
    """

    def __init__(self, env, injector=None):
        self.env = env
        self.injector = injector
        self.fired = []

    def _fire(self, kind, target_name, action):
        def strike():
            action()
            self.fired.append((self.env.now, kind, target_name))
            if self.injector is not None:
                self.injector._record(kind, (target_name,), self.env.now)
        return strike

    def crash_service_at(self, time, service):
        """Crash a micro-service at virtual ``time``."""
        return self.env.call_at(
            time, self._fire("service-crash", service.name, service.crash)
        )

    def recover_service_at(self, time, service):
        """Bring a crashed micro-service back at virtual ``time``."""
        return self.env.call_at(
            time, self._fire("service-recover", service.name, service.recover)
        )

    def fail_at(self, time, target, kind=None, name=None):
        """Destroy ``target`` at virtual ``time``, whatever it is.

        Target-agnostic failure scheduling: anything exposing one of
        the conventional kill switches can be scheduled --

        - ``fail_active()`` (a :class:`~repro.scbr.ReplicatedBroker`),
          recorded as ``broker-failure``;
        - ``fail()``, recorded as ``target-failure``;
        - a bare callable, recorded as ``target-failure``.

        For killing one shard of a sharded plane, use
        :meth:`crash_shard_at` (the shard id is part of the record).
        """
        if callable(target):
            action = target
            default_kind = "target-failure"
        elif hasattr(target, "fail_active"):
            action = target.fail_active
            default_kind = "broker-failure"
        elif hasattr(target, "fail"):
            action = target.fail
            default_kind = "target-failure"
        else:
            raise ConfigurationError(
                "cannot fail %r: expected fail_active(), fail(), or a "
                "callable" % (target,)
            )
        if name is None:
            name = getattr(target, "name", None) or getattr(
                target, "__name__", "target"
            )
        return self.env.call_at(
            time, self._fire(kind or default_kind, name, action)
        )

    def crash_shard_at(self, time, plane, shard_id):
        """Destroy shard ``shard_id`` of a sharded matching plane at
        virtual ``time`` (records the shard id in the fault log)."""
        return self.env.call_at(
            time,
            self._fire(
                "shard-crash",
                "%s/shard-%d" % (getattr(plane, "name", "plane"), shard_id),
                lambda: plane.fail_shard(shard_id),
            ),
        )

    def crash_node_at(self, time, plane, node_name):
        """Fail cluster node ``node_name`` of a node-bound plane at
        virtual ``time`` -- a correlated loss of every shard it hosts
        (records the node name in the fault log)."""
        return self.env.call_at(
            time,
            self._fire(
                "node-crash",
                "%s/%s" % (getattr(plane, "name", "plane"), node_name),
                lambda: plane.fail_node(node_name),
            ),
        )

    def partition_node_at(self, time, plane, node_name, duration):
        """Cut node ``node_name`` off the network at virtual ``time``
        for ``duration`` virtual seconds."""
        return self.env.call_at(
            time,
            self._fire(
                "node-partition",
                "%s/%s" % (getattr(plane, "name", "plane"), node_name),
                lambda: plane.partition_node(node_name, duration),
            ),
        )

    def call_at(self, time, kind, name, action):
        """Schedule an arbitrary named fault ``action`` at ``time``."""
        return self.env.call_at(time, self._fire(kind, name, action))
