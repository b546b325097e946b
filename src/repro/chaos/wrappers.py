"""Chaos wrappers: drop-in hostile versions of infrastructure pieces.

Each wrapper keeps the wrapped object's interface and consults a
:class:`~repro.chaos.injector.ChaosInjector` before forwarding, so a
test or benchmark turns any deployment hostile by interposing one
object -- no subsystem needs chaos-aware code on its happy path.

One sharded-plane wrapper, :class:`ChaosPlane`, breaks shards and (on
a topology) machines.  Its machine half is :func:`node_fault_step`,
the only place seeded node crashes and partitions are drawn; the
stream plane's ``pump`` calls the same step over its hosting nodes.
"""

from repro.errors import StorageUnavailableError


class ChaosBus:
    """Wraps an event bus; drops, duplicates, and delays sealed events.

    Decisions are keyed by ``(topic, sequence, attempt)`` where the
    attempt counter increments per delivery try of that sequence
    (including NACK-triggered redeliveries), so a redelivered event is
    an independent draw and recovery converges.
    """

    def __init__(self, bus, injector):
        self.bus = bus
        self.injector = injector
        self._attempts = {}
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def __getattr__(self, name):
        return getattr(self.bus, name)

    def _next_attempt(self, topic, sequence):
        key = (topic, sequence)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        return attempt

    def publish(self, event):
        attempt = self._next_attempt(event.topic, event.sequence)
        if self.injector.drops_message(event.topic, event.sequence, attempt):
            self.dropped += 1
            return None
        delay = self.injector.delay_for_message(event.topic, event.sequence)
        if delay > 0.0:
            self.delayed += 1
            return self.bus.env.call_later(
                delay, lambda: self.bus.publish(event)
            )
        result = self.bus.publish(event)
        if self.injector.duplicates_message(event.topic, event.sequence):
            self.duplicated += 1
            self.bus.publish(event)
        return result

    def redeliver(self, topic, sequences, handler=None):
        """NACK path: redeliveries run the same drop gauntlet."""
        survivors = []
        for sequence in sequences:
            attempt = self._next_attempt(topic, sequence)
            if self.injector.drops_message(topic, sequence, attempt):
                self.dropped += 1
                continue
            survivors.append(sequence)
        return self.bus.redeliver(topic, survivors, handler=handler)


class ChaosVolume:
    """Wraps an FS-shield volume; I/O transiently fails with some rate.

    Raises :class:`~repro.errors.StorageUnavailableError` -- a
    :class:`~repro.errors.TransientError` -- so retry policies classify
    it without string matching.  Per-(operation, path) attempt counters
    make each retry an independent draw.
    """

    _CHAOTIC = ("write", "read_all", "delete")

    def __init__(self, volume, injector):
        self.volume = volume
        self.injector = injector
        self._attempts = {}
        self.failures_injected = 0

    def _guard(self, operation, path):
        key = (operation, path)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        if self.injector.storage_fails(operation, path, attempt):
            self.failures_injected += 1
            raise StorageUnavailableError(
                "injected storage failure: %s %r (attempt %d)"
                % (operation, path, attempt)
            )

    def write(self, path, data):
        self._guard("write", path)
        return self.volume.write(path, data)

    def read_all(self, path):
        self._guard("read_all", path)
        return self.volume.read_all(path)

    def delete(self, path):
        self._guard("delete", path)
        return self.volume.delete(path)

    def exists(self, path):
        # Existence checks stay reliable: a store that lies about
        # membership is the rollback attack the manifest MAC catches,
        # not a transient fault.
        return self.volume.exists(path)


class ChaosNetwork:
    """Wraps a :class:`~repro.bigdata.transfer.SimulatedNetwork` link.

    Corrupts frame payloads in flight (one flipped byte -- enough for
    the AEAD tag check to fail) at the configured rate; the reliable
    transfer detects the integrity failure and retransmits.  Frame
    indices are assigned in send order per transfer, so decisions are
    deterministic.
    """

    def __init__(self, network, injector, transfer_id=b"t0"):
        self.network = network
        self.injector = injector
        self.transfer_id = transfer_id
        self._frame_attempts = {}
        self.corrupted = 0

    def __getattr__(self, name):
        return getattr(self.network, name)

    def send_frame(self, frame, frame_index=None):
        if frame_index is None:
            frame_index = self.network.frames_sent
        attempt = self._frame_attempts.get(frame_index, 0)
        self._frame_attempts[frame_index] = attempt + 1
        sent = self.network.send_frame(frame, frame_index=frame_index)
        if self.injector.corrupts_frame(self.transfer_id, frame_index, attempt):
            self.corrupted += 1
            flipped = bytearray(sent)
            flipped[len(flipped) // 2] ^= 0x01
            return bytes(flipped)
        return sent


def node_fault_step(injector, fleet, nodes, operation):
    """The one chaos node-fault step: one draw per node at ``operation``.

    For each live node in ``nodes`` (in order) a node-crash draw fails
    the whole machine through ``fleet.fail_node`` -- the topology's one
    crash path, so every plane with a shard there loses it at once, the
    correlated fault the node detector exists for -- and, for a
    reachable survivor, a partition draw cuts it off the network for a
    seeded duration (``fleet.partition_node``).  Each draw is a pure
    function of (seed, kind, node, operation) and a zero rate draws
    nothing.  Returns ``(crashes, partitions)`` injected.
    """
    crashes = partitions = 0
    now = fleet.now()
    for node in nodes:
        if not node.alive:
            continue
        if injector.crashes_node(node.name, operation):
            crashes += 1
            fleet.fail_node(node.name)
            continue
        if not node.reachable(now):
            continue
        duration = injector.partition_for_node(node.name, operation)
        if duration > 0.0:
            partitions += 1
            fleet.partition_node(node.name, duration)
    return crashes, partitions


class ChaosPlane:
    """Wraps a sharded SCBR plane; crashes shards and machines mid-stream.

    Before forwarding each publish, consults the injector with a
    monotonically increasing operation index: once per *live* shard
    (a hit destroys it via the plane's ``fail_shard``) and, on a
    topology-placed plane, once per SGX node through
    :func:`node_fault_step` (machine crashes and network partitions).
    The plane's own machinery -- heartbeats, correlated node
    detection, sealed-snapshot respawn, mass recovery, coverage-tracked
    publish -- then has to notice and heal; the wrapper only breaks
    things.
    """

    def __init__(self, plane, injector):
        self.plane = plane
        self.injector = injector
        self._operation = 0
        self.crashes_injected = 0
        self.node_crashes_injected = 0
        self.partitions_injected = 0

    def _maybe_break(self):
        operation = self._operation
        self._operation += 1
        for shard in list(self.plane.shards):
            if shard.enclave.destroyed:
                continue
            if self.injector.crashes_shard(shard.shard_id, operation):
                self.crashes_injected += 1
                self.plane.fail_shard(shard.shard_id)
        fleet = self.plane.fleet
        if fleet.topology is not None:
            crashes, partitions = node_fault_step(
                self.injector, fleet, fleet.topology.sgx_nodes(), operation
            )
            self.node_crashes_injected += crashes
            self.partitions_injected += partitions

    def publish_routed(self, envelope):
        self._maybe_break()
        return self.plane.publish_routed(envelope)


class ChaosSyscallExecutor:
    """Wraps a syscall executor; stalls chosen calls in the host kernel.

    Models a noisy or adversarially slow OS: the stalled call charges
    extra kernel-side cycles before returning, which the async-syscall
    latency experiments observe as tail latency.  Shield validation
    still runs -- chaos slows the kernel, it does not bypass shielding.
    """

    def __init__(self, executor, injector):
        self.executor = executor
        self.injector = injector
        self._call_index = 0
        self.stalled = 0
        self.stall_cycles = 0

    def call(self, name, *args):
        index = self._call_index
        self._call_index += 1
        stall = self.injector.stalls_syscall(index)
        if stall:
            self.stalled += 1
            self.stall_cycles += stall
            self.executor.clock.charge(stall)
        return self.executor.call(name, *args)
