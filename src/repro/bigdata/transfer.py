"""Efficient transmission of large amounts of data.

Bulk transfers chunk the payload, compress each chunk, and seal each
*frame* of ``batch_size`` chunks with one
:meth:`~repro.crypto.aead.AeadKey.seal_records`: the chunks travel
length-prefixed inside a single AEAD frame, so the 48-byte nonce+tag
overhead and the MAC finalisation are paid per frame, not per chunk.
The frame's associated data binds the transfer id, the frame index, the
total frame count, and the compression flag, so the receiver detects
loss, reordering, truncation, and cross-transfer replay.  A
:class:`SimulatedNetwork` charges virtual time per frame
(latency + size/bandwidth), so benchmarks can report throughput and the
compression/batching trade-offs.

:class:`ReliableBulkTransfer` adds selective retransmission on top: the
receiver verifies every frame independently, NACKs the indices that
fail authentication (corrupted in flight -- injected by the chaos
layer's :class:`~repro.chaos.ChaosNetwork`), and the sender retransmits
only those with exponential backoff in virtual time.  Verified frames
are kept across rounds, so resumption is idempotent; after the retry
budget the transfer fails with one typed
:class:`~repro.errors.RetryExhaustedError`.
"""

import zlib
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    IntegrityError,
    RetryExhaustedError,
    TransportError,
)
from repro.retry import BackoffClock, RetryPolicy

COMPRESSION_LEVEL = 1   # zlib's fastest: sealing, not ratio, is the point


@dataclass
class TransferStats:
    """Outcome of one bulk transfer."""

    raw_bytes: int
    compressed_bytes: int
    wire_bytes: int
    chunks: int
    frames: int
    seconds: float

    @property
    def compression_ratio(self):
        """raw / compressed (>1 means compression helped)."""
        if self.compressed_bytes == 0:
            return 1.0
        return self.raw_bytes / self.compressed_bytes

    @property
    def throughput_mbps(self):
        """Goodput in megabytes of raw payload per second."""
        if self.seconds == 0:
            return float("inf")
        return self.raw_bytes / 1e6 / self.seconds


class SimulatedNetwork:
    """A point-to-point link with latency and bandwidth."""

    def __init__(self, bandwidth_mbps=1000.0, latency_seconds=0.0002):
        if bandwidth_mbps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self.bandwidth_bytes_per_second = bandwidth_mbps * 1e6 / 8
        self.latency_seconds = latency_seconds
        self.clock_seconds = 0.0
        self.frames_sent = 0
        self.bytes_sent = 0

    def send_frame(self, frame, frame_index=None):
        """Charge the virtual time one frame costs; returns the frame.

        ``frame_index`` identifies the frame within its transfer so
        wrapping links (e.g. the chaos layer's corrupting network) can
        key per-frame decisions; the plain link ignores it.
        """
        self.clock_seconds += (
            self.latency_seconds + len(frame) / self.bandwidth_bytes_per_second
        )
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        return frame


class BulkTransfer:
    """Chunk + compress + seal + batch sender, and the matching receiver."""

    def __init__(self, key, chunk_size=64 * 1024, batch_size=8, compress=True):
        if chunk_size < 1 or batch_size < 1:
            raise ConfigurationError("chunk_size and batch_size must be >= 1")
        self.key = key
        self.chunk_size = chunk_size
        self.batch_size = batch_size
        self.compress = compress

    def _frame_aad(self, frame_index, frame_count, transfer_id):
        return b"bulk|%s|%d|%d|%d" % (
            transfer_id, frame_index, frame_count, 1 if self.compress else 0
        )

    def seal_frames(self, payload, transfer_id=b"t0"):
        """Chunk, compress, and seal ``payload`` into wire frames.

        Returns ``(frames, chunk_count, compressed_total)``.  The
        sender keeps these pristine frames for retransmission -- what a
        hostile network *returns* may differ from what was sent.
        """
        # Chunks are views into the caller's payload: the uncompressed
        # path hands them to the AEAD framing without ever copying the
        # payload (the sealed frame is the first materialisation), and
        # the compressor reads straight from the view.
        view = memoryview(payload)
        chunks = [
            view[offset : offset + self.chunk_size]
            for offset in range(0, len(view), self.chunk_size)
        ] or [b""]
        if self.compress:
            bodies = [
                zlib.compress(chunk, COMPRESSION_LEVEL) for chunk in chunks
            ]
        else:
            bodies = chunks
        compressed_total = sum(len(body) for body in bodies)
        batches = [
            bodies[offset : offset + self.batch_size]
            for offset in range(0, len(bodies), self.batch_size)
        ]
        frames = [
            self.key.seal_records(
                batch, self._frame_aad(frame_index, len(batches), transfer_id)
            )
            for frame_index, batch in enumerate(batches)
        ]
        return frames, len(chunks), compressed_total

    def send(self, payload, network, transfer_id=b"t0"):
        """Transmit ``payload``; returns ``(frames, stats)``.

        The returned frames are what the *network delivered* (a chaos
        link may have corrupted them in flight), which is exactly what
        the receiver gets to verify.
        """
        frames, chunk_count, compressed_total = self.seal_frames(
            payload, transfer_id
        )
        start = network.clock_seconds
        received = [
            network.send_frame(frame, frame_index=frame_index)
            for frame_index, frame in enumerate(frames)
        ]
        stats = TransferStats(
            raw_bytes=len(payload),
            compressed_bytes=compressed_total,
            wire_bytes=sum(len(frame) for frame in received),
            chunks=chunk_count,
            frames=len(received),
            seconds=network.clock_seconds - start,
        )
        return received, stats

    def open_frame(self, frame, frame_index, frame_count, transfer_id=b"t0"):
        """Verify and decrypt one frame; returns its chunk bodies.

        The per-frame entry point the reliable receiver uses to verify
        frames independently, so one corrupted frame NACKs alone
        instead of failing the whole transfer.
        """
        return self.key.open_records(
            frame, self._frame_aad(frame_index, frame_count, transfer_id),
            what="bulk frame %d" % frame_index,
        )

    def receive(self, frames, transfer_id=b"t0"):
        """Verify, decrypt, decompress, and reassemble the payload."""
        bodies = []
        for frame_index, frame in enumerate(frames):
            bodies.extend(
                self.open_frame(frame, frame_index, len(frames), transfer_id)
            )
        chunks = [
            zlib.decompress(body) if self.compress else body for body in bodies
        ]
        return b"".join(chunks)


@dataclass
class ReliableTransferStats:
    """Outcome of one reliable transfer, recovery accounting included."""

    stats: TransferStats           # the underlying first-pass send
    frames: int
    corrupted: int
    retransmissions: int
    rounds: int
    backoff_seconds: float

    @property
    def goodput_mbps(self):
        """Raw payload bytes per second of wire plus backoff time."""
        seconds = self.stats.seconds + self.backoff_seconds
        if seconds == 0:
            return float("inf")
        return self.stats.raw_bytes / 1e6 / seconds


class ReliableBulkTransfer:
    """Selective retransmission over a corrupting link.

    Wraps a :class:`BulkTransfer`.  :meth:`transmit` pushes every frame
    through ``network`` (typically a
    :class:`~repro.chaos.ChaosNetwork`), verifies each frame on the
    receiver side, and retransmits exactly the frames that failed
    authentication -- verified frames are never resent, so a resumed
    round is idempotent.  Backoff between rounds is charged to virtual
    time; when ``policy.max_attempts`` rounds still leave unverified
    frames, the transfer raises :class:`RetryExhaustedError`.
    """

    def __init__(self, transfer, policy=None):
        self.transfer = transfer
        self.policy = policy or RetryPolicy()
        self.backoff = BackoffClock()
        self.retransmissions = 0
        self.corrupted_detected = 0

    def transmit(self, payload, network, transfer_id=b"t0"):
        """Send ``payload`` reliably; returns ``(payload_out, stats)``."""
        pristine, chunk_count, compressed_total = self.transfer.seal_frames(
            payload, transfer_id
        )
        frame_count = len(pristine)
        start = network.clock_seconds
        received = [
            network.send_frame(frame, frame_index=frame_index)
            for frame_index, frame in enumerate(pristine)
        ]
        send_stats = TransferStats(
            raw_bytes=len(payload),
            compressed_bytes=compressed_total,
            wire_bytes=sum(len(frame) for frame in received),
            chunks=chunk_count,
            frames=frame_count,
            seconds=network.clock_seconds - start,
        )
        bodies = [None] * frame_count
        outstanding = list(range(frame_count))
        rounds = 0
        while True:
            rounds += 1
            nacked = []
            for index in outstanding:
                try:
                    bodies[index] = self.transfer.open_frame(
                        received[index], index, frame_count, transfer_id
                    )
                except IntegrityError:
                    self.corrupted_detected += 1
                    nacked.append(index)
            if not nacked:
                break
            if rounds >= self.policy.max_attempts:
                raise RetryExhaustedError(
                    "transfer %r: frames %r unverified after %d rounds"
                    % (transfer_id, nacked, rounds),
                    attempts=rounds,
                    last_error=TransportError(
                        "%d frames kept failing authentication" % len(nacked)
                    ),
                )
            self.backoff.sleep(self.policy.delay(rounds))
            # Selective retransmission of the *pristine* sealed frames:
            # only the NACKed indices travel again, and each resend is
            # a fresh draw for a chaos network.
            for index in nacked:
                received[index] = network.send_frame(
                    pristine[index], frame_index=index
                )
                self.retransmissions += 1
            outstanding = nacked
        chunks = [
            zlib.decompress(body) if self.transfer.compress else body
            for frame_bodies in bodies
            for body in frame_bodies
        ]
        return b"".join(chunks), ReliableTransferStats(
            stats=send_stats,
            frames=frame_count,
            corrupted=self.corrupted_detected,
            retransmissions=self.retransmissions,
            rounds=rounds,
            backoff_seconds=self.backoff.seconds,
        )
