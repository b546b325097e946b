"""The shielded external system-call interface.

SCONE's syscall story (Section IV) has three parts, all modelled here:

1. **Shielding** -- results coming back from the untrusted OS are sanity
   checked and memory-based return values are copied into the enclave
   before use (:class:`SyscallShield`); a malicious kernel returning an
   oversized buffer or a bogus count is caught.
2. **Synchronous execution** -- the naive path pays an enclave exit and
   re-entry per call (:class:`SyncSyscallExecutor`).
3. **Asynchronous execution** -- calls are placed in a shared queue and
   executed by untrusted worker threads running on other cores, so the
   enclave never exits; it pays only a queue operation and, if it must
   wait, the remaining service time (:class:`AsyncSyscallExecutor`).
   Combined with user-level threading (:mod:`repro.scone.threads`) this
   is what gives SCONE "acceptable performance".
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, IntegrityError
from repro.telemetry import default_registry

# Cycles a worker needs to execute each syscall in the host kernel.
SYSCALL_DURATIONS = {
    "open": 3_000,
    "close": 1_000,
    "read": 2_000,
    "write": 2_500,
    "stat": 1_200,
    "unlink": 2_000,
    "socket": 2_500,
    "send": 4_000,
    "recv": 4_000,
    "fsync": 10_000,
    "nanosleep": 1_500,
}
DEFAULT_SYSCALL_DURATION = 2_000

# Lock-free queue operation on the enclave side (SCONE's hot path).
QUEUE_SUBMIT_CYCLES = 300
# Copying a returned buffer into protected memory, per byte.
COPY_CYCLES_PER_BYTE = 0.5


@dataclass(frozen=True)
class SyscallRequest:
    """One syscall: name plus positional arguments."""

    name: str
    args: tuple = ()

    @property
    def duration_cycles(self):
        """Kernel-side service time."""
        return SYSCALL_DURATIONS.get(self.name, DEFAULT_SYSCALL_DURATION)


class SimulatedKernel:
    """The untrusted host kernel: a file table plus syscall handlers.

    ``hostile=True`` makes it misbehave in ways a compromised OS could
    (oversized read results, inflated write counts) so tests can verify
    the shield rejects them.
    """

    def __init__(self, hostile=False):
        self.hostile = hostile
        self._files = {}
        self._descriptors = {}
        self._sockets = {}
        self._next_fd = 3  # 0-2 are the (shielded) standard streams
        self.calls_served = 0

    def execute(self, request):
        """Run one syscall and return its raw (untrusted) result."""
        handler = getattr(self, "_sys_" + request.name, None)
        if handler is None:
            raise ConfigurationError("unknown syscall %r" % request.name)
        self.calls_served += 1
        return handler(*request.args)

    # --- handlers ---

    def _sys_open(self, path):
        fd = self._next_fd
        self._next_fd += 1
        self._files.setdefault(path, bytearray())
        self._descriptors[fd] = [path, 0]
        return fd

    def _sys_close(self, fd):
        self._descriptors.pop(fd, None)
        return 0

    def _resolve(self, fd):
        try:
            return self._descriptors[fd]
        except KeyError:
            raise ConfigurationError("bad file descriptor %d" % fd) from None

    def _sys_read(self, fd, length):
        descriptor = self._resolve(fd)
        path, position = descriptor
        data = bytes(self._files[path][position : position + length])
        descriptor[1] = position + len(data)
        if self.hostile:
            # A malicious kernel hands back more bytes than asked for,
            # hoping the enclave overruns its buffer.
            data = data + b"\xee" * (length + 16)
        return data

    def _sys_write(self, fd, data):
        descriptor = self._resolve(fd)
        path, position = descriptor
        buffer = self._files[path]
        if len(buffer) < position:
            buffer.extend(b"\x00" * (position - len(buffer)))
        buffer[position : position + len(data)] = data
        descriptor[1] = position + len(data)
        if self.hostile:
            return len(data) + 1_000_000  # inflated byte count
        return len(data)

    def _sys_fsync(self, fd):
        self._resolve(fd)
        return 0

    def _sys_stat(self, path):
        if path not in self._files:
            raise ConfigurationError("no such file %r" % path)
        size = len(self._files[path])
        if self.hostile:
            size = -1  # nonsense metadata
        return {"size": size}

    def _sys_unlink(self, path):
        if path not in self._files:
            raise ConfigurationError("no such file %r" % path)
        del self._files[path]
        return 0

    def _sys_socket(self, address):
        """A loopback datagram socket bound to ``address``."""
        fd = self._next_fd
        self._next_fd += 1
        self._sockets.setdefault(address, [])
        self._descriptors[fd] = ["socket:" + address, 0]
        return fd

    def _socket_address(self, fd):
        path, _position = self._resolve(fd)
        if not path.startswith("socket:"):
            raise ConfigurationError("descriptor %d is not a socket" % fd)
        return path[len("socket:"):]

    def _sys_send(self, fd, destination, data):
        self._socket_address(fd)
        if destination not in self._sockets:
            raise ConfigurationError("no socket bound at %r" % destination)
        self._sockets[destination].append(bytes(data))
        if self.hostile:
            return len(data) * 2
        return len(data)

    def _sys_recv(self, fd, max_bytes):
        address = self._socket_address(fd)
        queue = self._sockets[address]
        if not queue:
            return b""
        datagram = queue.pop(0)
        if self.hostile:
            return datagram + b"\xee" * (max_bytes + 16)
        return datagram[:max_bytes]

    def _sys_nanosleep(self, _duration):
        return 0


class SyscallShield:
    """Validates untrusted results and charges the copy-in cost."""

    def __init__(self, memory=None):
        self.memory = memory
        self.rejected = 0
        self._tel_rejected = default_registry().counter(
            "scone.shield.rejections"
        )

    def _reject(self):
        self.rejected += 1
        self._tel_rejected.inc()

    def _charge_copy(self, nbytes):
        if self.memory is not None and nbytes:
            self.memory.compute(int(nbytes * COPY_CYCLES_PER_BYTE))

    def validate(self, request, result):
        """Check ``result`` against what ``request`` permits.

        Returns the (copied-in) result; raises
        :class:`~repro.errors.IntegrityError` on violations.
        """
        if request.name in ("read", "recv"):
            requested = request.args[1]
            if not isinstance(result, bytes) or len(result) > requested:
                self._reject()
                raise IntegrityError(
                    "kernel returned %s bytes for a %d-byte %s"
                    % (
                        len(result) if isinstance(result, bytes) else "?",
                        requested,
                        request.name,
                    )
                )
            self._charge_copy(len(result))
            return bytes(result)  # copy into enclave memory
        if request.name in ("write", "send"):
            payload = request.args[1] if request.name == "write" else request.args[2]
            written = len(payload)
            if not isinstance(result, int) or not 0 <= result <= written:
                self._reject()
                raise IntegrityError(
                    "kernel claims %r bytes written of %d" % (result, written)
                )
            return result
        if request.name in ("open", "socket"):
            if not isinstance(result, int) or result < 0:
                self._reject()
                raise IntegrityError("kernel returned invalid descriptor %r" % result)
            return result
        if request.name == "stat":
            if (
                not isinstance(result, dict)
                or not isinstance(result.get("size"), int)
                or result["size"] < 0
            ):
                self._reject()
                raise IntegrityError("kernel returned invalid stat %r" % result)
            return dict(result)
        if isinstance(result, bytes):
            self._charge_copy(len(result))
            return bytes(result)
        return result


class SyncSyscallExecutor:
    """One enclave exit + re-entry per system call."""

    def __init__(self, clock, kernel, costs, shield=None):
        self.clock = clock
        self.kernel = kernel
        self.costs = costs
        self.shield = shield or SyscallShield()
        self.calls = 0
        self._tel_calls = default_registry().counter(
            "scone.syscalls", mode="sync"
        )

    def call(self, name, *args):
        """Execute a syscall synchronously; blocks the enclave thread."""
        request = SyscallRequest(name, args)
        self.clock.charge(self.costs.transition_cycles)  # EEXIT
        result = self.kernel.execute(request)
        self.clock.charge(request.duration_cycles)
        self.clock.charge(self.costs.transition_cycles)  # EENTER
        self.calls += 1
        self._tel_calls.inc()
        return self.shield.validate(request, result)


@dataclass
class PendingSyscall:
    """An in-flight asynchronous syscall."""

    request: SyscallRequest
    completion_time: int
    result: Optional[object] = None
    validated: bool = field(default=False, init=False, repr=False)

    def done_at(self, now):
        """Whether the worker has finished by virtual time ``now``."""
        return now >= self.completion_time


class AsyncSyscallExecutor:
    """SCONE's shared-queue syscall path.

    Untrusted worker threads (``workers``) run on other cores, so their
    service time overlaps enclave execution: submitting charges only a
    lock-free queue operation.  :meth:`wait` advances the clock to the
    completion time only if the result is not ready yet -- the time a
    user-level thread would actually stall.
    """

    def __init__(self, clock, kernel, costs, shield=None, workers=2):
        if workers < 1:
            raise ConfigurationError("need at least one syscall worker")
        self.clock = clock
        self.kernel = kernel
        self.costs = costs
        self.shield = shield or SyscallShield()
        self._worker_busy_until = [0] * workers
        self.calls = 0
        registry = default_registry()
        self._tel_calls = registry.counter("scone.syscalls", mode="async")
        # Queue depth at submit time: how many workers are still busy
        # when a new call arrives.  Virtual-clock-derived, so the
        # distribution is identical across same-seed runs.
        self._tel_depth = registry.histogram(
            "scone.syscall_queue_depth",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64),
        )

    def submit(self, name, *args):
        """Queue a syscall; returns a :class:`PendingSyscall`."""
        request = SyscallRequest(name, args)
        self.clock.charge(QUEUE_SUBMIT_CYCLES)
        now = self.clock.now
        self._tel_depth.observe(
            sum(1 for busy in self._worker_busy_until if busy > now)
        )
        worker = min(range(len(self._worker_busy_until)),
                     key=self._worker_busy_until.__getitem__)
        start = max(self.clock.now, self._worker_busy_until[worker])
        completion = start + request.duration_cycles
        self._worker_busy_until[worker] = completion
        # The kernel-side effect happens at submission order; its timing
        # is captured by completion_time.
        result = self.kernel.execute(request)
        self.calls += 1
        self._tel_calls.inc()
        return PendingSyscall(request=request, completion_time=completion,
                              result=result)

    def poll(self, pending):
        """Non-blocking check; returns the validated result or ``None``."""
        if not pending.done_at(self.clock.now):
            return None
        return self._finish(pending)

    def wait(self, pending):
        """Block (advance virtual time) until ``pending`` completes."""
        if not pending.done_at(self.clock.now):
            self.clock.charge(pending.completion_time - self.clock.now)
        return self._finish(pending)

    def _finish(self, pending):
        if not pending.validated:
            pending.result = self.shield.validate(pending.request, pending.result)
            pending.validated = True
        return pending.result

    def call(self, name, *args):
        """Submit-and-wait convenience (still avoids enclave exits)."""
        return self.wait(self.submit(name, *args))
