"""Tests for crash recovery in the secure map/reduce driver."""

import pytest

from repro.chaos import ChaosInjector
from repro.errors import ConfigurationError, RetryExhaustedError
from repro.retry import RetryPolicy
from repro.bigdata.mapreduce import (
    MapReduceCheckpoint,
    MapReduceJob,
    SecureMapReduce,
    plain_mapreduce,
)
from repro.sgx.platform import SgxPlatform


def word_map(record):
    return [(word, 1) for word in record.split()]


def count_reduce(_key, values):
    return sum(values)


RECORDS = [
    "alpha beta", "beta gamma", "gamma alpha", "alpha alpha",
    "delta beta", "gamma delta", "alpha delta", "beta beta",
]

EXPECTED = {
    repr(key): value
    for key, value in plain_mapreduce(word_map, count_reduce, RECORDS).items()
}


def make_engine(chaos=None, policy=None, job_key=None):
    platform = SgxPlatform(seed=17, quoting_key_bits=512)
    job = MapReduceJob(map_fn=word_map, reduce_fn=count_reduce,
                       mappers=4, reducers=2)
    return SecureMapReduce(platform, job, chaos=chaos, retry_policy=policy,
                           job_key=job_key)


class TestCrashRecovery:
    def test_crashes_are_retried_to_the_correct_answer(self):
        chaos = ChaosInjector(seed=23, mapper_crash_rate=0.4,
                              reducer_crash_rate=0.2)
        engine = make_engine(
            chaos=chaos, policy=RetryPolicy(max_attempts=8, base_delay=0.005)
        )
        assert engine.run(RECORDS) == EXPECTED
        assert engine.crashes_detected > 0
        assert engine.recoveries
        assert engine.backoff.seconds > 0.0
        for episode in engine.recoveries:
            assert episode["attempts"] >= 2
            assert episode["backoff_seconds"] > 0.0

    def test_same_seed_recoveries_are_equal_and_in_task_order(self):
        """The driver runs tasks in index order, map before reduce, so
        the recovery log is a pure function of the chaos seed."""
        def recoveries():
            chaos = ChaosInjector(seed=23, mapper_crash_rate=0.6,
                                  reducer_crash_rate=0.6)
            engine = make_engine(
                chaos=chaos,
                policy=RetryPolicy(max_attempts=12, base_delay=0.005),
            )
            assert engine.run(RECORDS) == EXPECTED
            return engine.recoveries

        first, second = recoveries(), recoveries()
        assert first == second
        tasks = [episode["task"] for episode in first]
        maps = [task for task in tasks if task.startswith("map-")]
        reduces = [task for task in tasks if task.startswith("reduce-")]
        assert len(maps) >= 2 and reduces
        assert tasks == sorted(maps) + sorted(reduces)

    def test_without_retry_policy_crashes_propagate(self):
        chaos = ChaosInjector(seed=23, mapper_crash_rate=1.0)
        engine = make_engine(chaos=chaos, policy=None)
        with pytest.raises(Exception):
            engine.run(RECORDS)

    def test_budget_exhaustion_fails_cleanly(self):
        chaos = ChaosInjector(seed=23, mapper_crash_rate=1.0)
        engine = make_engine(
            chaos=chaos, policy=RetryPolicy(max_attempts=3, base_delay=0.001)
        )
        with pytest.raises(RetryExhaustedError):
            engine.run(RECORDS)


class TestCheckpointResume:
    def test_checkpoint_accumulates_sealed_outputs(self):
        engine = make_engine(policy=RetryPolicy())
        checkpoint = MapReduceCheckpoint()
        assert engine.run(RECORDS, checkpoint=checkpoint) == EXPECTED
        assert checkpoint.completed_splits == [0, 1, 2, 3]
        assert len(checkpoint.reduce_outputs) == 2
        assert checkpoint.stored_bytes > 0

    def test_failed_job_resumes_from_checkpoint(self):
        # First driver: reducers always crash, so the job fails after
        # the map phase -- but its map outputs are checkpointed.
        chaos = ChaosInjector(seed=23, reducer_crash_rate=1.0)
        first = make_engine(
            chaos=chaos, policy=RetryPolicy(max_attempts=2, base_delay=0.001)
        )
        checkpoint = MapReduceCheckpoint()
        with pytest.raises(RetryExhaustedError):
            first.run(RECORDS, checkpoint=checkpoint)
        assert checkpoint.completed_splits == [0, 1, 2, 3]
        assert not checkpoint.reduce_outputs
        # Second driver (same job key, no chaos): resumes, skipping the
        # four completed splits, and finishes correctly.
        second = make_engine(policy=RetryPolicy(), job_key=first.job_key)
        assert second.run(RECORDS, checkpoint=checkpoint) == EXPECTED
        assert second.splits_resumed == 4

    def test_checkpoint_rejects_foreign_job(self):
        first = make_engine(policy=RetryPolicy())
        checkpoint = MapReduceCheckpoint()
        first.run(RECORDS, checkpoint=checkpoint)
        other = make_engine(policy=RetryPolicy())  # fresh random job key
        with pytest.raises(ConfigurationError):
            other.run(RECORDS, checkpoint=checkpoint)

    def test_chaos_disabled_matches_seed_behaviour(self):
        # The chaos-capable driver with chaos off must compute exactly
        # what the plain reference computes.
        engine = make_engine()
        assert engine.run(RECORDS) == EXPECTED
        assert engine.crashes_detected == 0
        assert engine.recoveries == []
