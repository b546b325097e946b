"""Tests for the multi-worker secure map/reduce driver.

The driver spreads a job over ``mappers`` / ``reducers`` worker
enclaves; these tests pin down that the worker count changes neither
the computed function nor the accounting, and that small jobs do not
pay for empty splits.
"""

from hypothesis import given, settings, strategies as st

from repro.sgx.platform import SgxPlatform
from repro.bigdata.mapreduce import (
    MapReduceJob,
    SecureMapReduce,
    plain_mapreduce,
)


def word_count_map(record):
    for word in record.split():
        yield word, 1


def sum_reduce(_key, values):
    return sum(values)


def platform():
    return SgxPlatform(seed=31, quoting_key_bits=512)


class TestEmptySplits:
    def test_no_empty_splits_generated(self):
        job = MapReduceJob(word_count_map, sum_reduce, mappers=8, reducers=2)
        engine = SecureMapReduce(platform(), job)
        splits = list(engine._splits(["a", "b", "c"]))
        assert all(splits)
        assert sum(len(split) for split in splits) == 3

    def test_no_splits_for_empty_input(self):
        job = MapReduceJob(word_count_map, sum_reduce, mappers=4, reducers=2)
        engine = SecureMapReduce(platform(), job)
        assert list(engine._splits([])) == []

    def test_idle_mappers_not_ecalled(self):
        """mappers > records: the surplus mappers only see the init call."""
        job = MapReduceJob(word_count_map, sum_reduce, mappers=6, reducers=2)
        engine = SecureMapReduce(platform(), job)
        result = engine.run(["one two", "two"])
        assert result == {"'one'": 1, "'two'": 2}
        map_calls = [m.ecall_count - 1 for m in engine._mappers]  # minus init
        assert sum(map_calls) <= 2
        assert map_calls.count(0) >= 4

    def test_empty_input_still_correct(self):
        job = MapReduceJob(word_count_map, sum_reduce, mappers=5, reducers=3)
        assert SecureMapReduce(platform(), job).run([]) == {}


class TestParallelEquivalence:
    def test_wide_job_matches_plain(self):
        records = ["alpha beta gamma %d" % i for i in range(200)]
        job = MapReduceJob(word_count_map, sum_reduce, mappers=8, reducers=4)
        secure = SecureMapReduce(platform(), job).run(records)
        plain = plain_mapreduce(word_count_map, sum_reduce, records)
        assert secure == {repr(k): v for k, v in plain.items()}

    def test_combiner_under_parallelism(self):
        records = ["x y x y x" for _ in range(50)]
        job = MapReduceJob(
            word_count_map, sum_reduce, mappers=5, reducers=3,
            combiner_fn=sum_reduce,
        )
        secure = SecureMapReduce(platform(), job).run(records)
        plain = plain_mapreduce(word_count_map, sum_reduce, records)
        assert secure == {repr(k): v for k, v in plain.items()}

    def test_sealed_bytes_accounting_deterministic(self):
        """Concurrent dispatch must not race the byte accounting.

        The same engine runs the same records twice: sealed sizes depend
        only on plaintext lengths and the (fixed) partition salt, so the
        second run must account exactly the same number of bytes.
        """
        records = ["w%d w%d" % (i % 7, i % 3) for i in range(120)]
        job = MapReduceJob(word_count_map, sum_reduce, mappers=6, reducers=3)
        engine = SecureMapReduce(platform(), job)
        engine.run(records)
        first = engine.sealed_bytes_moved
        assert first > 0
        engine.run(records)
        assert engine.sealed_bytes_moved == 2 * first

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="abcd ", min_size=0, max_size=20),
            max_size=20,
        ),
        st.integers(1, 6),
        st.integers(1, 4),
    )
    def test_equivalence_property(self, records, mappers, reducers):
        job = MapReduceJob(word_count_map, sum_reduce,
                           mappers=mappers, reducers=reducers)
        secure = SecureMapReduce(platform(), job).run(records)
        plain = plain_mapreduce(word_count_map, sum_reduce, records)
        assert secure == {repr(k): v for k, v in plain.items()}

    def test_numeric_job_matches_plain(self):
        def by_bucket(record):
            yield record % 5, record

        def total(_key, values):
            return sum(values)

        records = list(range(97))
        job = MapReduceJob(by_bucket, total, mappers=7, reducers=3)
        secure = SecureMapReduce(platform(), job).run(records)
        plain = plain_mapreduce(by_bucket, total, records)
        assert secure == {repr(k): v for k, v in plain.items()}
