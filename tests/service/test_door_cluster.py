"""The door's composed fault domain: both planes on one cluster.

The door owns one :class:`~repro.cluster.nodes.NodeTopology`; its SCBR
shards and its stream shards are placed on it side by side, each plane
spread over the nodes first (:func:`repro.plane.choose_node`).  A node
crash is then one event for both planes, and whatever the door does,
no node's resident enclave state outgrows its usable EPC.
"""

from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.service import SecureFrontDoor
from repro.sim.events import Environment
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.topology import GridTopology

from tests.scbr.oracle import oracle_delivery_sets

TENANTS = ("acme", "globex", "initech", "umbrella")
# Subscriptions over two attributes never all cover one another, so
# both SCBR shards hold state (and EPC) before the stream plane comes.
ATTRIBUTES = ("load", "volt")


def _door(seed):
    door = SecureFrontDoor(Environment(), seed=seed)
    for tenant in TENANTS:
        door.register_tenant(tenant, rate=1e9, burst=1e9)
    return door


def _subscribe(door, subscriptions, tenant, bound):
    subscription = Subscription(
        "%s-%d" % (tenant, bound),
        [Constraint(ATTRIBUTES[bound % 2], Operator.GT, bound)], tenant,
    )
    assert door.subscribe(
        tenant, subscription.subscription_id,
        subscription.constraints.values(),
    ).ok
    subscriptions.append(subscription)


def _planes(door):
    return door._ensure_router(), door._ensure_stream_plane()


def _homes(plane):
    return [member.node.name for member in plane.fleet.members.values()]


def _assert_spread_and_within_epc(door):
    for plane in _planes(door):
        homes = _homes(plane)
        assert len(set(homes)) == len(homes), homes
    door.topology.check_invariants()
    for node in door.topology:
        assert node.epc_resident_bytes <= node.epc_usable, node.name


def test_both_planes_share_the_doors_one_topology():
    door = _door(seed=61)
    router, streams = _planes(door)
    assert router.topology is door.topology is streams.topology
    assert door.topology.fleets == [router.fleet, streams.fleet]
    # The door's machine, its stream coordinator's and three workers.
    machines = {id(door.platform), id(streams.coordinator_platform)}
    machines.update(id(node.platform) for node in door.topology)
    assert len(machines) == 5
    _assert_spread_and_within_epc(door)


def test_a_node_crash_is_one_event_for_both_planes():
    door = _door(seed=62)
    grid = GridTopology.build(2, 2, 2)
    subscriptions = []
    for position, tenant in enumerate(TENANTS):
        for bound in (10, 40):
            _subscribe(door, subscriptions, tenant, bound + position)
    router = door._ensure_router()
    assert all(shard.database_bytes for shard in router.shards)
    assert door.attach_stream(
        "acme", "meters", SmartMeterFleet(grid, seed=5), grid.meters
    ).ok
    assert door.stream_round("acme", "meters", 0.0, 60.0).ok
    router, streams = _planes(door)
    shared = [
        node for node in door.topology
        if node.name in _homes(router) and node.name in _homes(streams)
    ]
    assert shared, "per-plane spread puts both planes on some node"
    node = shared[0]
    lost = {
        plane.name: len(plane.fleet.on_node(node))
        for plane in (router, streams)
    }
    assert lost == {router.name: 1, streams.name: 1}
    before = {plane.name: plane.shard_failures for plane in (router, streams)}

    door.topology.crash_node(node.name)

    for plane in (router, streams):
        assert plane.shard_failures - before[plane.name] == lost[plane.name]
    attributes = {"load": 30, "volt": 45}
    receipt = door.publish("globex", attributes)
    (expected,) = oracle_delivery_sets(
        subscriptions, [Publication(attributes)]
    )
    assert receipt.ok and receipt.detail["notifications"] == len(expected)
    assert door.stream_round("acme", "meters", 60.0, 60.0).ok
    door.check_identity()
    assert node.name not in _homes(router) + _homes(streams)
    _assert_spread_and_within_epc(door)
    router.check_invariants()
    streams.fleet.check_invariants()


def _map(record):
    return [(record.split("-")[0], 1)]


def _reduce(_key, values):
    return sum(values)


def test_a_tenant_mix_run_keeps_the_cluster_within_epc_and_spread():
    door = _door(seed=63)
    grid = GridTopology.build(2, 2, 2)
    subscriptions = []
    clock = {tenant: 0.0 for tenant in TENANTS}
    for position, tenant in enumerate(TENANTS):
        for bound in range(4):
            _subscribe(door, subscriptions, tenant, 11 * bound + position)
        records = [b"k%d-%d" % (n % 4, n) for n in range(32)]
        assert door.upload_dataset(tenant, "input", records).ok
        assert door.attach_stream(
            tenant, "meters", SmartMeterFleet(grid, seed=len(tenant)),
            grid.meters,
        ).ok
        _assert_spread_and_within_epc(door)
    for step in range(48):
        tenant = TENANTS[step % len(TENANTS)]
        kind = step // len(TENANTS) % 4
        if kind == 0:
            _subscribe(door, subscriptions, tenant, 100 + step)
        elif kind == 1:
            attributes = {"load": 2 * step, "volt": 3 * step}
            receipt = door.publish(tenant, attributes)
            (expected,) = oracle_delivery_sets(
                subscriptions, [Publication(attributes)]
            )
            assert receipt.detail["notifications"] == len(expected)
        elif kind == 2:
            start = clock[tenant]
            clock[tenant] = start + 60.0
            assert door.stream_round(tenant, "meters", start, 60.0).ok
        else:
            assert door.submit_job(
                tenant, "job-%d" % step, "input", _map, _reduce, 2, 1
            ).ok
        _assert_spread_and_within_epc(door)
    door.check_identity()
