"""Secure map/reduce.

Mappers and reducers are enclave entry points; every record crossing an
enclave boundary (input splits in, intermediate shuffle data, final
output) travels AEAD-sealed under a per-job key, so the untrusted
driver that moves data between stages never sees plaintext.  The
shuffle partitions by a keyed hash so even key *names* are opaque
outside.

Splits, shuffle partitions, and outputs are sealed with the batch AEAD
framing (:meth:`~repro.crypto.aead.AeadKey.seal_records`): one nonce and
one tag per boundary crossing instead of per record, and one keystream
pass over the whole frame.  The driver runs map tasks, then reduce tasks, one
after another in index order: ``job.mappers`` / ``job.reducers`` set
how many worker enclaves share the work.  The host loop is serial on
purpose -- an ecall is CPU-bound Python under the GIL, where host
threads overlap nothing -- and concurrency across workers belongs to
the cycle model.

The plain reference implementation (:func:`plain_mapreduce`) defines
the semantics; the property tests assert the secure engine computes the
same function.

Failure recovery: the driver checkpoints each completed task's *sealed*
output (map partitions per split, reduce output per partition) into a
:class:`MapReduceCheckpoint` -- untrusted-safe, since everything in it
is ciphertext under the job key.  A worker crash
(:class:`~repro.errors.WorkerCrashError`, whether injected by the chaos
layer or surfaced by a dead enclave) is retried on a freshly loaded --
and, when an attestation service is configured, re-attested -- worker
with exponential backoff in virtual time; after the retry budget the
job fails cleanly with one :class:`~repro.errors.RetryExhaustedError`,
and a later run against the same checkpoint resumes from the completed
splits instead of starting over.
"""

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, WorkerCrashError
from repro.crypto.aead import AeadKey
from repro.crypto.primitives import hmac_sha256
from repro.retry import BackoffClock, RetryPolicy, retry_call
from repro.sgx.enclave import EnclaveCode
from repro.telemetry import (
    DEFAULT_CYCLE_BUCKETS,
    default_registry,
    exponential_buckets,
)


def plain_mapreduce(map_fn, reduce_fn, records):
    """Reference semantics: map, group by key, reduce each group."""
    groups = defaultdict(list)
    for record in records:
        for key, value in map_fn(record):
            groups[key].append(value)
    return {key: reduce_fn(key, values) for key, values in sorted(groups.items())}


@dataclass(frozen=True)
class MapReduceJob:
    """A job: the two functions plus parallelism settings.

    ``combiner_fn`` (optional) enables map-side combining: each mapper
    pre-reduces its partition-local values with
    ``combiner_fn(key, values) -> partial`` before sealing the shuffle
    data, and the reducer reduces the partials.  Only valid when the
    reduction is associative and commutative over partials (sums,
    counts, min/max, ...), as in classic MapReduce.
    """

    map_fn: object
    reduce_fn: object
    mappers: int = 4
    reducers: int = 2
    combiner_fn: Optional[object] = None

    def __post_init__(self):
        if self.mappers < 1 or self.reducers < 1:
            raise ConfigurationError("mappers and reducers must be >= 1")


def _encode(obj):
    return json.dumps(obj, sort_keys=True, default=str).encode("utf-8")


def _decode(raw):
    return json.loads(raw.decode("utf-8"))


def _seal_items(key, kind, items):
    """Seal a list of JSON-encodable items as one batch blob.

    The whole list is one JSON payload inside the batch frame: one
    ``json.dumps``, one keystream pass, one nonce+tag -- per-item
    encoding would cost a dumps/loads round per record.  Splits larger
    than one chunk auto-select the chunked ``SB2`` framing.
    """
    return key.seal_records([_encode(items)], kind)


def _open_items(key, kind, blob):
    records = key.open_records(
        blob, kind, what="map/reduce %s data" % kind.decode()
    )
    return _decode(records[0]) if records else []


# --- enclave entry points ---

def _enclave_init(ctx, job_key_bytes, reducers):
    ctx.state["key"] = AeadKey(bytes.fromhex(job_key_bytes))
    ctx.state["reducers"] = reducers
    ctx.state["partition_salt"] = ctx.state["key"].key_bytes[:16]
    return True


def _partition_of(ctx, key_repr):
    digest = hmac_sha256(ctx.state["partition_salt"], key_repr.encode("utf-8"))
    return int.from_bytes(digest[:4], "big") % ctx.state["reducers"]


def _enclave_map(ctx, map_fn, sealed_split, combiner_fn=None):
    """Run one map task: open split, map, (combine,) seal partitions."""
    key = ctx.state["key"]
    records = _open_items(key, b"split", sealed_split)
    partitions = defaultdict(list)
    # Output keys repeat heavily in aggregations; memoise the keyed
    # partition hash per distinct key instead of HMACing every pair.
    partition_memo = {}
    for record in records:
        for out_key, out_value in map_fn(record):
            key_repr = repr(out_key)
            partition = partition_memo.get(key_repr)
            if partition is None:
                partition = _partition_of(ctx, key_repr)
                partition_memo[key_repr] = partition
            partitions[partition].append([out_key, out_value])
    if combiner_fn is not None:
        for partition, pairs in partitions.items():
            groups = defaultdict(list)
            for out_key, out_value in pairs:
                if isinstance(out_key, list):
                    out_key = tuple(out_key)
                groups[out_key].append(out_value)
            partitions[partition] = [
                [list(out_key) if isinstance(out_key, tuple) else out_key,
                 combiner_fn(out_key, values)]
                for out_key, values in groups.items()
            ]
    return {
        partition: _seal_items(key, b"shuffle", pairs)
        for partition, pairs in partitions.items()
    }


def _enclave_reduce(ctx, reduce_fn, sealed_shuffles):
    """Run one reduce task: group its partition's pairs and reduce."""
    key = ctx.state["key"]
    groups = defaultdict(list)
    for blob in sealed_shuffles:
        for out_key, out_value in _open_items(key, b"shuffle", blob):
            # JSON round-trips tuples as lists; normalise to hashable.
            if isinstance(out_key, list):
                out_key = tuple(out_key)
            groups[out_key].append(out_value)
    result = {
        repr(out_key): reduce_fn(out_key, values)
        for out_key, values in groups.items()
    }
    return _seal_items(key, b"output", sorted(result.items()))


WORKER_ENTRY_POINTS = {
    "init": _enclave_init,
    "map": _enclave_map,
    "reduce": _enclave_reduce,
}

WORKER_CODE = EnclaveCode("mapreduce-worker", WORKER_ENTRY_POINTS)


class MapReduceCheckpoint:
    """Sealed intermediate results of a job, safe on untrusted storage.

    Holds the map phase's sealed shuffle partitions per input split and
    the reduce phase's sealed outputs per partition.  All values are
    AEAD ciphertext under the job key, so the checkpoint leaks nothing
    beyond sizes; tampering is caught when a blob is opened.  A
    checkpoint is bound to one job key fingerprint -- resuming a
    different job against it is a configuration error, not silent
    garbage.
    """

    def __init__(self):
        self.map_outputs = {}      # split_index -> {partition: sealed blob}
        self.reduce_outputs = {}   # partition -> sealed output blob
        self.job_tag = None

    def bind(self, job_tag):
        """Associate (or re-verify) the owning job's key fingerprint."""
        if self.job_tag is None:
            self.job_tag = job_tag
        elif self.job_tag != job_tag:
            raise ConfigurationError(
                "checkpoint belongs to job %s, not %s"
                % (self.job_tag, job_tag)
            )

    def record_map(self, split_index, partitions):
        """Store the sealed shuffle partitions of a completed map task."""
        self.map_outputs[split_index] = dict(partitions)

    def record_reduce(self, partition, blob):
        """Store the sealed output of a completed reduce task."""
        self.reduce_outputs[partition] = blob

    @property
    def completed_splits(self):
        """Input splits whose map output is already checkpointed."""
        return sorted(self.map_outputs)

    @property
    def stored_bytes(self):
        """Total sealed bytes held by the checkpoint."""
        total = sum(
            len(blob)
            for partitions in self.map_outputs.values()
            for blob in partitions.values()
        )
        total += sum(len(blob) for blob in self.reduce_outputs.values())
        return total


class SecureMapReduce:
    """The untrusted driver: splits, schedules, shuffles -- all sealed.

    When an ``attestation_service`` is supplied, the driver verifies a
    quote from every worker enclave before provisioning the job key --
    a swapped worker binary never sees a single record.  (Omitting it
    models a driver that already trusts its enclaves, e.g. inside one
    measured deployment.)
    """

    def __init__(self, platform, job, attestation_service=None,
                 chaos=None, retry_policy=None, job_key=None):
        """``chaos`` (a :class:`~repro.chaos.ChaosInjector`) injects
        worker crashes; ``retry_policy`` bounds re-execution of crashed
        tasks (default: crashes propagate, matching the seed
        behaviour).  ``job_key`` lets a restarted driver reuse a prior
        job's key so it can resume that job's checkpoint."""
        self.platform = platform
        self.job = job
        self.job_key = job_key if job_key is not None else AeadKey.generate()
        self.chaos = chaos
        self.retry_policy = retry_policy
        self._attestation_service = attestation_service
        self._mappers = [
            self._spawn_worker("mapper-%d" % i) for i in range(job.mappers)
        ]
        self._reducers = [
            self._spawn_worker("reducer-%d" % i) for i in range(job.reducers)
        ]
        self.sealed_bytes_moved = 0
        self.backoff = BackoffClock()
        self.recoveries = []
        self.crashes_detected = 0
        self.splits_resumed = 0
        registry = default_registry()
        self._tel_map_tasks = registry.counter("bigdata.map_tasks")
        self._tel_reduce_tasks = registry.counter("bigdata.reduce_tasks")
        self._tel_sealed_bytes = registry.counter("bigdata.sealed_bytes_moved")
        self._tel_crashes = registry.counter("bigdata.crashes_detected")
        self._tel_resumed = registry.counter("bigdata.splits_resumed")
        self._tel_checkpoints = registry.counter("bigdata.checkpoint_records")
        self._tel_split_bytes = registry.histogram(
            "bigdata.split_bytes", buckets=exponential_buckets(64, 4, 10)
        )
        self._tel_map_phase = registry.histogram(
            "bigdata.map_phase_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )
        self._tel_reduce_phase = registry.histogram(
            "bigdata.reduce_phase_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )

    def _spawn_worker(self, name):
        """Load, (re-)attest, and provision one worker enclave."""
        enclave = self.platform.load_enclave(WORKER_CODE, name=name)
        if self._attestation_service is not None:
            quote = self.platform.quote(enclave, report_data=b"mapreduce-join")
            self._attestation_service.verify(
                quote, expected_measurement=WORKER_CODE.measurement
            )
        enclave.ecall("init", self.job_key.key_bytes.hex(), self.job.reducers)
        return enclave

    def _run_task(self, role, index, enclaves, ecall_args, crash_check):
        """Execute one task with bounded retry on worker crashes.

        ``enclaves`` is the role's worker list; on recovery the crashed
        slot is replaced by a freshly loaded, re-attested worker.  Backoff
        is charged to the shared virtual clock and every recovery
        episode is recorded for the E5 latency report.
        """
        task_name = "%s-%d" % (role, index)
        task_backoff = BackoffClock()

        def attempt_once(attempt):
            if crash_check is not None and crash_check(index, attempt):
                raise WorkerCrashError(
                    "%s crashed (attempt %d)" % (task_name, attempt)
                )
            # A destroyed enclave raises EnclaveLostError (transient),
            # which the retry loop converts into a respawned worker.
            return enclaves[index].ecall(*ecall_args)

        def on_retry(attempt, error, delay):
            task_backoff.sleep(delay)
            enclaves[index] = self._spawn_worker(
                "%s-retry%d" % (task_name, attempt)
            )
            self.crashes_detected += 1
            self.backoff.sleep(delay)
            self._tel_crashes.inc()

        if self.retry_policy is None:
            return attempt_once(1)
        result = retry_call(attempt_once, self.retry_policy, on_retry=on_retry)
        if task_backoff.sleeps:
            self.recoveries.append({
                "task": task_name,
                "attempts": task_backoff.sleeps + 1,
                "backoff_seconds": task_backoff.seconds,
            })
        return result

    def _splits(self, records):
        """Non-empty record splits, at most ``job.mappers`` of them.

        Small jobs with ``mappers > len(records)`` would otherwise
        produce empty trailing splits that still pay sealing and an
        ecall each for zero records.
        """
        if not records:
            return
        count = self.job.mappers
        size = (len(records) + count - 1) // count
        for index in range(count):
            split = records[index * size : (index + 1) * size]
            if split:
                yield split

    def run(self, records, checkpoint=None):
        """Execute the job; returns ``{repr(key): reduced_value}``.

        With ``checkpoint`` (a :class:`MapReduceCheckpoint`), completed
        tasks' sealed outputs are recorded as the job progresses and
        already-checkpointed tasks are skipped -- a driver that died
        mid-job resumes instead of recomputing, and a job that failed
        cleanly after exhausting retries keeps its finished splits.
        """
        records = list(records)
        if checkpoint is not None:
            checkpoint.bind(self.job_key.fingerprint())
        # 1. Seal input splits (driver holds them only encrypted; the
        #    sealing itself happens at the data owner / ingestion side,
        #    modelled by using the job key here).
        sealed_splits = [
            _seal_items(self.job_key, b"split", split)
            for split in self._splits(records)
        ]
        for sealed in sealed_splits:
            self._tel_split_bytes.observe(len(sealed))
        # 2. Map phase, in split order.  Crashed tasks are retried per
        #    the retry policy; completed tasks are checkpointed and
        #    skipped on resume.
        crash_check = self.chaos.mapper_crashes if self.chaos else None
        partition_maps = (
            dict(checkpoint.map_outputs) if checkpoint is not None else {}
        )
        pending = [
            index for index in range(len(sealed_splits))
            if index not in partition_maps
        ]
        self.splits_resumed += len(sealed_splits) - len(pending)
        self._tel_resumed.inc(len(sealed_splits) - len(pending))
        if pending:
            map_phase_start = self.platform.clock.now
            for index in pending:
                partitions = self._run_task(
                    "map", index, self._mappers,
                    ("map", self.job.map_fn, sealed_splits[index],
                     self.job.combiner_fn),
                    crash_check,
                )
                partition_maps[index] = partitions
                if checkpoint is not None:
                    checkpoint.record_map(index, partitions)
                    self._tel_checkpoints.inc()
            self._tel_map_tasks.inc(len(pending))
            self._tel_map_phase.observe(
                self.platform.clock.now - map_phase_start
            )
        shuffle_bins = defaultdict(list)
        for index in sorted(partition_maps):
            for partition, blob in partition_maps[index].items():
                self.sealed_bytes_moved += len(blob)
                self._tel_sealed_bytes.inc(len(blob))
                shuffle_bins[partition].append(blob)
        # 3. Reduce phase, same pattern in partition order: bounded
        #    re-execution, per-partition checkpoints.
        crash_check = self.chaos.reducer_crashes if self.chaos else None
        output_blobs = (
            dict(checkpoint.reduce_outputs) if checkpoint is not None else {}
        )
        reduce_pending = [
            partition for partition in range(self.job.reducers)
            if partition not in output_blobs
        ]
        if reduce_pending:
            reduce_phase_start = self.platform.clock.now
            for partition in reduce_pending:
                blob = self._run_task(
                    "reduce", partition, self._reducers,
                    ("reduce", self.job.reduce_fn,
                     shuffle_bins.get(partition, [])),
                    crash_check,
                )
                output_blobs[partition] = blob
                if checkpoint is not None:
                    checkpoint.record_reduce(partition, blob)
                    self._tel_checkpoints.inc()
            self._tel_reduce_tasks.inc(len(reduce_pending))
            self._tel_reduce_phase.observe(
                self.platform.clock.now - reduce_phase_start
            )
        merged = {}
        for partition in sorted(output_blobs):
            output_blob = output_blobs[partition]
            self.sealed_bytes_moved += len(output_blob)
            self._tel_sealed_bytes.inc(len(output_blob))
            for key_repr, value in _open_items(
                self.job_key, b"output", output_blob
            ):
                merged[key_repr] = value
        return merged
