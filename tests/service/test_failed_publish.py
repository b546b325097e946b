"""A publish that fails mid-flight leaves nothing parked in the coordinator.

``coord_ingest`` parks a publication under a token until
``coord_finalize`` consumes it.  A shard that fails its match with
anything but ``EnclaveLostError`` (the host tampering with a plane
message is enough) used to leave the token parked for good: enclave
memory grew by one publication per failure, and ``coord_rotate``
refused -- "publications in flight" -- from then on.
"""

import pytest

from repro.errors import IntegrityError
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.service import SecureFrontDoor
from repro.sgx.enclave import EnclaveContext
from repro.sim.events import Environment

from tests.scbr.oracle import oracle_delivery_sets

TENANTS = ("acme", "globex", "initech")


def test_failed_publishes_park_nothing_and_rotation_still_works():
    door = SecureFrontDoor(Environment(), seed=23)
    subscriptions = []
    for position, tenant in enumerate(TENANTS):
        door.register_tenant(tenant, rate=1e9, burst=1e9)
        for bound in (10, 40):
            subscription = Subscription(
                "%s-%d" % (tenant, bound),
                [Constraint("load", Operator.GT, bound + position)], tenant,
            )
            subscriptions.append(subscription)
            assert door.subscribe(
                tenant, subscription.subscription_id,
                subscription.constraints.values(),
            ).ok
    router = door._ensure_router()
    pending = EnclaveContext(router.coordinator).state["pending_publications"]

    enclave = router.shards[0].enclave
    real = enclave.ecall

    def tampered(entry_point, *args, **kwargs):
        if entry_point == "match":
            raise IntegrityError("plane message failed authentication")
        return real(entry_point, *args, **kwargs)

    enclave.ecall = tampered
    for _ in range(5):
        receipt = door.publish("acme", {"load": 30})
        assert receipt.outcome == "error"
        assert "failed authentication" in receipt.detail["error"]
        assert not pending
    del enclave.ecall

    assert router.rotate_plane_key() == 2
    attributes = {"load": 30}
    receipt = door.publish("acme", attributes)
    (expected,) = oracle_delivery_sets(
        subscriptions, [Publication(attributes)]
    )
    assert receipt.ok and receipt.detail["notifications"] == len(expected) == 3
    assert not pending
    door.check_identity()
    router.check_invariants()


def test_a_dead_coordinator_does_not_mask_the_original_error():
    door = SecureFrontDoor(Environment(), seed=24)
    door.register_tenant("acme", rate=1e9, burst=1e9)
    assert door.subscribe("acme", "s", [("load", ">", 1)]).ok
    router = door._ensure_router()
    enclave = router.shards[0].enclave
    real = enclave.ecall

    def tampered(entry_point, *args, **kwargs):
        if entry_point == "match":
            router.coordinator.destroy()
            raise IntegrityError("plane message failed authentication")
        return real(entry_point, *args, **kwargs)

    enclave.ecall = tampered
    client = door._scbr_client("acme")
    with pytest.raises(IntegrityError, match="failed authentication"):
        client.publish(Publication({"load": 30}))
