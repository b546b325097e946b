"""A shard restores only its own, complete snapshot.

The host stores every shard's sealed snapshot and hands one back when it
respawns the shard, so it can pick the wrong one or cut one short.  The
``restore`` ECALL checks the sealed header against the enclave's own
shard id and record count; either mismatch fails closed and leaves the
partition empty.
"""

import json

import pytest

from repro.crypto.aead import AeadKey
from repro.errors import IntegrityError
from repro.scbr.messages import serialize_subscription
from repro.scbr.sharding import _AAD_SNAPSHOT, _AAD_SUBSCRIPTION, SHARD_CODE
from repro.scbr.workload import ScbrWorkload
from repro.sgx.enclave import EnclaveContext
from repro.sgx.platform import SgxPlatform


@pytest.fixture
def plane():
    """(platform, plane key, subscriptions) for hand-joined shards."""
    workload = ScbrWorkload(seed=3, num_attributes=4, num_subscribers=3)
    return (SgxPlatform(seed=41, quoting_key_bits=512), AeadKey.generate(),
            workload.subscriptions(12))


def _shard(platform, shard_id, plane_key):
    """A fresh shard enclave holding ``plane_key`` without the join."""
    enclave = platform.load_enclave(SHARD_CODE)
    enclave.ecall("setup", shard_id, None, None)
    EnclaveContext(enclave).state["plane_key"] = plane_key
    return enclave


def _partition(enclave):
    state = EnclaveContext(enclave).state
    return len(state["index"]), dict(state["owners"]), state["version"]


def test_another_shards_snapshot_is_refused(plane):
    platform, plane_key, subscriptions = plane
    first = _shard(platform, 0, plane_key)
    for subscription in subscriptions:
        first.ecall("insert", plane_key.seal(
            serialize_subscription(subscription), _AAD_SUBSCRIPTION
        ))
    _version, blob = first.ecall("snapshot")
    fresh = _shard(platform, 1, plane_key)
    with pytest.raises(IntegrityError, match="belongs to shard 0"):
        fresh.ecall("restore", blob)
    assert _partition(fresh) == (0, {}, 0)
    # The shard the snapshot names takes it.
    twin = _shard(platform, 0, plane_key)
    assert twin.ecall("restore", blob) == len(subscriptions)
    assert _partition(twin) == _partition(first)


def test_a_header_count_that_disagrees_with_the_body_is_refused(plane):
    platform, plane_key, subscriptions = plane
    fresh = _shard(platform, 1, plane_key)
    body = [serialize_subscription(s) for s in subscriptions[:3]]
    for promised in (2, 4):
        header = json.dumps(
            {"shard_id": 1, "version": 9, "count": promised}
        ).encode("utf-8")
        blob = plane_key.seal_records([header] + body, _AAD_SNAPSHOT)
        with pytest.raises(IntegrityError, match="promises %d" % promised):
            fresh.ecall("restore", blob)
        assert _partition(fresh) == (0, {}, 0)
    header = json.dumps({"shard_id": 1, "version": 9, "count": 3})
    blob = plane_key.seal_records([header.encode("utf-8")] + body,
                                  _AAD_SNAPSHOT)
    assert fresh.ecall("restore", blob) == 3
    assert _partition(fresh)[::2] == (3, 9)
