"""Tests for cluster nodes and the node topology."""

import pytest

from repro.cluster import ClusterNode, NodeSpec, NodeTopology
from repro.errors import CapacityError, ConfigurationError, SchedulingError
from repro.sgx.costs import DEFAULT_COSTS


class TestClusterNode:
    def test_sgx_node_carries_a_platform(self):
        node = ClusterNode(NodeSpec("n0", seed=1))
        assert node.sgx and node.platform is not None
        assert node.platform.platform_id == "node/n0"
        assert node.epc_usable == DEFAULT_COSTS.epc_usable

    def test_non_sgx_node_has_no_platform(self):
        node = ClusterNode(NodeSpec("legacy", sgx=False))
        assert not node.sgx
        assert node.platform is None
        assert node.epc_usable == 0
        assert node.epc_utilization() == 0.0
        assert not node.epc_watermark_exceeded(0.0)

    def test_epc_capacity_scales_the_costs(self):
        node = ClusterNode(NodeSpec("small", epc_capacity=1 << 20, seed=1))
        assert node.epc_usable < DEFAULT_COSTS.epc_usable
        ratio = node.epc_usable / (1 << 20)
        default_ratio = DEFAULT_COSTS.epc_usable / DEFAULT_COSTS.epc_capacity
        assert abs(ratio - default_ratio) < 1e-6

    def test_bind_places_a_server_container(self):
        node = ClusterNode(NodeSpec("n0", seed=1))
        node.bind_shard(3)
        assert node.shard_ids == {3}
        assert "shard-3" in node.server.containers
        node.unbind_shard(3)
        assert node.shard_ids == set()
        assert node.server.containers == {}

    def test_bind_rejects_non_sgx_and_dead_nodes(self):
        legacy = ClusterNode(NodeSpec("legacy", sgx=False))
        with pytest.raises(SchedulingError):
            legacy.bind_shard(0)
        node = ClusterNode(NodeSpec("n0", seed=1))
        node.crash()
        with pytest.raises(SchedulingError):
            node.bind_shard(0)

    def test_crash_returns_dark_shards_and_clears_ledger(self):
        node = ClusterNode(NodeSpec("n0", seed=1))
        node.bind_shard(1)
        node.bind_shard(4)
        dark = node.crash()
        assert dark == [1, 4]
        assert node.shard_ids == set()
        assert not node.alive
        assert node.crashes == 1
        node.repair()
        assert node.alive and node.server.powered_on

    def test_partition_heals_by_time_or_explicitly(self):
        node = ClusterNode(NodeSpec("n0", seed=1))
        assert node.reachable(0.0)
        node.partition(until=1.0)
        assert not node.reachable(0.5)
        assert node.reachable(1.0), "partition auto-heals at its deadline"
        node.partition(until=2.0)
        node.heal_partition()
        assert node.reachable(0.0)

    def test_partition_only_extends(self):
        node = ClusterNode(NodeSpec("n0", seed=1))
        node.partition(until=2.0)
        node.partition(until=1.0)
        assert node.partitioned_until == 2.0

    def test_crashed_node_is_unreachable_regardless(self):
        node = ClusterNode(NodeSpec("n0", seed=1))
        node.crash()
        assert not node.reachable(0.0)


class TestNodeTopology:
    def test_build_heterogeneous(self):
        topology = NodeTopology.build(
            3, seed=7,
            epc_capacities=[1 << 20, None, None],
            sgx_flags=[True, True, False],
        )
        assert len(topology) == 3
        assert [node.name for node in topology] == [
            "node-0", "node-1", "node-2"
        ]
        assert topology.node("node-0").epc_usable < \
            topology.node("node-1").epc_usable
        assert not topology.node("node-2").sgx
        assert len(topology.sgx_nodes()) == 2

    def test_same_seed_same_platform_seeds(self):
        a = NodeTopology.build(2, seed=7)
        b = NodeTopology.build(2, seed=7)
        assert [n.spec.seed for n in a] == [n.spec.seed for n in b]

    def test_empty_and_duplicate_names_rejected(self):
        with pytest.raises(CapacityError):
            NodeTopology([])
        with pytest.raises(ConfigurationError):
            NodeTopology([
                ClusterNode(NodeSpec("dup", seed=1)),
                ClusterNode(NodeSpec("dup", seed=2)),
            ])

    def test_unknown_node_rejected(self):
        topology = NodeTopology.build(1, seed=1)
        with pytest.raises(ConfigurationError):
            topology.node("nope")

    def test_placement_candidates_filter(self):
        topology = NodeTopology.build(
            4, seed=7, sgx_flags=[True, True, True, False]
        )
        topology.crash_node("node-1")
        topology.partition_node("node-2", until=5.0)
        names = [n.name for n in topology.placement_candidates(0.0)]
        assert names == ["node-0"]
        # The partition heals by t=5; exclusion still applies.
        names = [
            n.name for n in topology.placement_candidates(
                5.0, exclude=("node-0",)
            )
        ]
        assert names == ["node-2"]

    def test_invariants_catch_double_homing(self):
        topology = NodeTopology.build(2, seed=7)
        # Corrupt the ledgers directly: bind_shard would also trip the
        # Cluster-level duplicate-container invariant first.
        topology.node("node-0").shard_ids.add(1)
        topology.node("node-1").shard_ids.add(1)
        with pytest.raises(ConfigurationError):
            topology.check_invariants()

    def test_invariants_catch_non_sgx_shards(self):
        topology = NodeTopology.build(2, seed=7, sgx_flags=[True, False])
        topology.node("node-1").shard_ids.add(0)  # corrupt the ledger
        with pytest.raises(ConfigurationError):
            topology.check_invariants()

    def test_shard_spread(self):
        topology = NodeTopology.build(2, seed=7)
        topology.node("node-0").bind_shard(0)
        topology.node("node-0").bind_shard(1)
        topology.node("node-1").bind_shard(2)
        assert topology.shard_spread() == {"node-0": 2, "node-1": 1}
        topology.check_invariants()
