"""The placement rule: anti-affinity per plane first, then per node.

:func:`repro.plane.choose_node` ranks candidates by *(this plane's
shards on the node, all shards on the node)*, then EPC utilisation,
then position.  On a topology several planes share, each plane spreads
before any doubles up; on a single-plane topology the pick is exactly
the plain fewest-shards rule, so no existing placement moves.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.plane import DEFAULT_NODE_EPC_WATERMARK, choose_node


class _Node:
    """What ``choose_node`` reads of a node: its ledger and its EPC."""

    def __init__(self, name, shard_ids, utilization, over=False):
        self.name = name
        self.shard_ids = set(shard_ids)
        self.utilization = utilization
        self.over = over

    def epc_utilization(self):
        return self.utilization

    def epc_watermark_exceeded(self, watermark):
        return self.over


class _Topology:
    def __init__(self, nodes):
        self.nodes = nodes

    def placement_candidates(self, now=None, exclude=()):
        return [
            node for node in self.nodes
            if node not in exclude and node.name not in exclude
        ]


def _pick(nodes, plane, exclude=()):
    return choose_node(
        _Topology(nodes), None, plane, DEFAULT_NODE_EPC_WATERMARK,
        exclude=exclude,
    ).name


def _fewest_shards(nodes):
    """The rule before placement was per plane: fewest shards of any
    plane, then EPC utilisation, then position, over the nodes under
    their watermark (all of them when none is)."""
    under = [node for node in nodes if not node.over] or nodes
    return min(
        under,
        key=lambda node: (
            len(node.shard_ids), node.utilization, nodes.index(node),
        ),
    ).name


class TestPerPlaneAntiAffinity:
    def test_a_second_plane_spreads_even_where_other_load_is_lighter(self):
        # SCBR holds node-0 and node-1 with data; the first stream shard
        # sits on the emptiest node-2.  Counting all shards ties the
        # three and EPC sends the second stream shard to node-2 as
        # well; counting this plane's first sends it elsewhere.
        nodes = [
            _Node("node-0", [("scbr", 0)], 0.2),
            _Node("node-1", [("scbr", 1)], 0.1),
            _Node("node-2", [("streams", 0)], 0.0),
        ]
        assert _fewest_shards(nodes) == "node-2"
        assert _pick(nodes, "streams") == "node-1"
        assert _pick(nodes, "scbr") == "node-2"

    def test_total_load_breaks_a_per_plane_tie(self):
        nodes = [
            _Node("node-0", [("scbr", 0), ("streams", 0)], 0.0),
            _Node("node-1", [("scbr", 1)], 0.5),
            _Node("node-2", [("streams", 1)], 0.4),
        ]
        assert _pick(nodes, "jobs") == "node-2"

    def test_over_watermark_nodes_are_a_last_resort(self):
        nodes = [
            _Node("node-0", [], 0.9, over=True),
            _Node("node-1", [("streams", 0), ("streams", 1)], 0.1),
        ]
        assert _pick(nodes, "streams") == "node-1"
        for node in nodes:
            node.over = True
        assert _pick(nodes, "streams") == "node-0"

    def test_exclusion_and_an_empty_cluster(self):
        nodes = [
            _Node("node-0", [], 0.0),
            _Node("node-1", [("scbr", 0)], 0.0),
        ]
        assert _pick(nodes, "scbr", exclude=("node-0",)) == "node-1"
        with pytest.raises(SchedulingError):
            _pick(nodes, "scbr", exclude=("node-0", "node-1"))

    def test_foreign_ledger_keys_count_only_as_total_load(self):
        nodes = [
            _Node("node-0", ["container-a"], 0.0),
            _Node("node-1", [("scbr", 0)], 0.0),
        ]
        assert _pick(nodes, "scbr") == "node-0"


_ledger_nodes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]),
        st.booleans(),
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_ledger_nodes)
def test_a_single_plane_picks_what_the_plain_rule_picks(spec):
    shard_ids = iter(range(1000))
    nodes = [
        _Node(
            "node-%d" % position,
            [("plane", next(shard_ids)) for _ in range(count)],
            utilization, over,
        )
        for position, (count, utilization, over) in enumerate(spec)
    ]
    assert _pick(nodes, "plane") == _fewest_shards(nodes)
