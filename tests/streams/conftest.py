import pytest

from repro.cluster.nodes import NodeTopology
from repro.sgx.attestation import AttestationService
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.topology import GridTopology
from repro.streams import MeterStreamSource, SecureStreamPlane, StreamConfig

WINDOW = {"kind": "tumbling", "size": 60.0, "lateness": 30.0}


@pytest.fixture
def grid():
    return GridTopology.build(2, 2, 3)


@pytest.fixture
def fleet(grid):
    return SmartMeterFleet(grid, seed=11)


def make_plane(config=None, shards=2, seed=3, nodes=4, **kwargs):
    topology = NodeTopology.build(nodes, seed=7)
    config = config or StreamConfig(
        window=dict(WINDOW), queue_bound=6, service_rate=2,
        checkpoint_interval=3,
    )
    return SecureStreamPlane(
        topology, config, attestation_service=AttestationService(),
        shards=shards, seed=seed, **kwargs
    )


def make_source(fleet, grid, plane, batch_records=12):
    return MeterStreamSource(
        "head-0", fleet, grid.meters, plane.ingest_key_bytes,
        batch_records=batch_records,
    )
