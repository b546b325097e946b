"""Tests for secure map/reduce."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
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


@pytest.fixture()
def platform():
    return SgxPlatform(seed=17, quoting_key_bits=512)


class TestPlainReference:
    def test_word_count(self):
        result = plain_mapreduce(
            word_count_map, sum_reduce, ["a b a", "b c"]
        )
        assert result == {"a": 2, "b": 2, "c": 1}

    def test_empty_input(self):
        assert plain_mapreduce(word_count_map, sum_reduce, []) == {}


class TestSecureEngine:
    def test_word_count_matches_plain(self, platform):
        records = ["the quick brown fox", "the lazy dog", "the fox"]
        job = MapReduceJob(word_count_map, sum_reduce, mappers=2, reducers=2)
        secure = SecureMapReduce(platform, job).run(records)
        plain = plain_mapreduce(word_count_map, sum_reduce, records)
        assert secure == {repr(k): v for k, v in plain.items()}

    def test_single_mapper_reducer(self, platform):
        job = MapReduceJob(word_count_map, sum_reduce, mappers=1, reducers=1)
        result = SecureMapReduce(platform, job).run(["x y x"])
        assert result == {"'x'": 2, "'y'": 1}

    def test_more_mappers_than_records(self, platform):
        job = MapReduceJob(word_count_map, sum_reduce, mappers=8, reducers=3)
        result = SecureMapReduce(platform, job).run(["solo"])
        assert result == {"'solo'": 1}

    def test_empty_input(self, platform):
        job = MapReduceJob(word_count_map, sum_reduce)
        assert SecureMapReduce(platform, job).run([]) == {}

    def test_invalid_parallelism(self):
        with pytest.raises(ConfigurationError):
            MapReduceJob(word_count_map, sum_reduce, mappers=0)

    def test_sealed_bytes_counted(self, platform):
        job = MapReduceJob(word_count_map, sum_reduce, mappers=2, reducers=2)
        engine = SecureMapReduce(platform, job)
        engine.run(["a b c d e f g"])
        assert engine.sealed_bytes_moved > 0

    def test_numeric_aggregation(self, platform):
        def by_region(record):
            yield record["region"], record["kwh"]

        def mean(_key, values):
            return sum(values) / len(values)

        records = [
            {"region": "north", "kwh": 10.0},
            {"region": "north", "kwh": 20.0},
            {"region": "south", "kwh": 6.0},
        ]
        job = MapReduceJob(by_region, mean, mappers=2, reducers=2)
        result = SecureMapReduce(platform, job).run(records)
        assert result["'north'"] == pytest.approx(15.0)
        assert result["'south'"] == pytest.approx(6.0)

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="abcd ", min_size=0, max_size=20),
            max_size=12,
        ),
        st.integers(1, 4),
        st.integers(1, 3),
    )
    def test_equivalence_property(self, records, mappers, reducers):
        platform = SgxPlatform(seed=23, quoting_key_bits=512)
        job = MapReduceJob(word_count_map, sum_reduce,
                           mappers=mappers, reducers=reducers)
        secure = SecureMapReduce(platform, job).run(records)
        plain = plain_mapreduce(word_count_map, sum_reduce, records)
        assert secure == {repr(k): v for k, v in plain.items()}

    def test_intermediate_data_is_sealed(self, platform):
        """The driver-visible shuffle blobs never contain plaintext."""
        job = MapReduceJob(word_count_map, sum_reduce, mappers=1, reducers=1)
        engine = SecureMapReduce(platform, job)
        mapper = engine._mappers[0]
        from repro.bigdata.mapreduce import _seal_items

        sealed_split = _seal_items(engine.job_key, b"split", ["SECRETWORD data"])
        partitions = mapper.ecall("map", word_count_map, sealed_split)
        for blob in partitions.values():
            assert b"SECRETWORD" not in blob
