"""GridTopology against a brute-force parent-map oracle.

The tree is a kind map, a parent map and a children map; the oracle
here keeps only ``name -> (kind, parent)`` and answers every query by
scanning it, so any disagreement is the tree's bookkeeping.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SecureCloudError
from repro.smartgrid.topology import GridTopology


class Oracle:
    def __init__(self, substation):
        self.nodes = {substation: ("substation", None)}

    def add(self, name, kind, parent):
        self.nodes[name] = (kind, parent)

    def path_to(self, name):
        path = []
        while name is not None:
            path.append(name)
            name = self.nodes[name][1]
        return path[::-1]

    def elements(self, kind):
        return sorted(n for n, (k, _p) in self.nodes.items() if k == kind)

    def children_of(self, name):
        return sorted(n for n, (_k, p) in self.nodes.items() if p == name)

    def meters_under(self, name):
        return [
            meter for meter in self.elements("meter")
            if name in self.path_to(meter)[:-1]
        ]

    def deepest_common_ancestor(self, names):
        shared = [
            node for node in self.nodes
            if all(node in self.path_to(name) for name in names)
        ]
        return max(shared, key=lambda node: len(self.path_to(node)))


@st.composite
def radial_grids(draw):
    """A random radial grid with shuffled names, and its oracle."""
    shape = draw(st.lists(  # feeders -> transformers -> meter counts
        st.lists(st.integers(0, 4), max_size=3), max_size=4
    ))
    total = sum(1 + len(feeder) + sum(feeder) for feeder in shape)
    names = iter(["e%03d" % n for n in draw(st.permutations(range(total)))])
    grid = GridTopology("root")
    oracle = Oracle("root")
    for feeder_shape in shape:
        feeder = next(names)
        grid.add_feeder(feeder)
        oracle.add(feeder, "feeder", "root")
        for meter_count in feeder_shape:
            transformer = next(names)
            grid.add_transformer(transformer, feeder)
            oracle.add(transformer, "transformer", feeder)
            for _ in range(meter_count):
                meter = next(names)
                grid.add_meter(meter, transformer)
                oracle.add(meter, "meter", transformer)
    return grid, oracle


def assert_matches(grid, oracle):
    for kind in ("substation", "feeder", "transformer", "meter"):
        assert grid.elements(kind) == oracle.elements(kind)
    assert grid.meters == oracle.elements("meter")
    assert grid.transformers == oracle.elements("transformer")
    assert grid.feeders == oracle.elements("feeder")
    for name, (kind, parent) in oracle.nodes.items():
        assert grid.kind_of(name) == kind
        assert grid.parent_of(name) == parent
        assert grid.children_of(name) == oracle.children_of(name)
        assert grid.meters_under(name) == oracle.meters_under(name)
        assert grid.path_to(name) == oracle.path_to(name)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(radial_grids())
    def test_every_query_matches(self, grid_and_oracle):
        assert_matches(*grid_and_oracle)

    @settings(max_examples=60, deadline=None)
    @given(radial_grids(), st.data())
    def test_deepest_common_ancestor_matches(self, grid_and_oracle, data):
        grid, oracle = grid_and_oracle
        chosen = data.draw(st.lists(
            st.sampled_from(sorted(oracle.nodes)), min_size=1, max_size=5
        ))
        assert grid.deepest_common_ancestor(chosen) == (
            oracle.deepest_common_ancestor(chosen)
        )

    @settings(max_examples=40, deadline=None)
    @given(radial_grids(), st.data())
    def test_rejected_additions_leave_the_tree_unchanged(self, grid_and_oracle, data):
        grid, oracle = grid_and_oracle
        existing = data.draw(st.sampled_from(sorted(oracle.nodes)))
        parent = data.draw(st.sampled_from(sorted(oracle.nodes)))
        parent_kind = oracle.nodes[parent][0]
        with pytest.raises(ConfigurationError):
            grid.add_feeder(existing)
        # A duplicate name under a valid parent, or a fresh name under
        # a parent of the wrong kind: both refused.
        with pytest.raises(ConfigurationError):
            grid.add_transformer(
                existing if parent_kind == "feeder" else "fresh", parent
            )
        with pytest.raises(ConfigurationError):
            grid.add_meter(
                existing if parent_kind == "transformer" else "fresh", parent
            )
        assert_matches(grid, oracle)


class TestUnknownElements:
    """Every query classifies an unknown element as a configuration error."""

    @pytest.mark.parametrize("query", [
        lambda grid: grid.kind_of("ghost"),
        lambda grid: grid.parent_of("ghost"),
        lambda grid: grid.children_of("ghost"),
        lambda grid: grid.meters_under("ghost"),
        lambda grid: grid.transformer_of("ghost"),
        lambda grid: grid.path_to("ghost"),
        lambda grid: grid.deepest_common_ancestor(["ghost"]),
        lambda grid: grid.deepest_common_ancestor(["meter-0-0-00", "ghost"]),
        lambda grid: grid.add_transformer("tx", "ghost"),
        lambda grid: grid.add_meter("m", "ghost"),
    ], ids=[
        "kind_of", "parent_of", "children_of", "meters_under", "transformer_of",
        "path_to", "deepest_common_ancestor", "deepest_common_ancestor-mixed",
        "add_transformer", "add_meter",
    ])
    def test_raises_configuration_error(self, query):
        grid = GridTopology.build(1, 1, 1)
        with pytest.raises(ConfigurationError) as caught:
            query(grid)
        assert isinstance(caught.value, SecureCloudError)
        assert "ghost" in str(caught.value)
