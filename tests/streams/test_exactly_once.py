from repro.chaos.injector import ChaosConfig, ChaosInjector, FaultSchedule
from repro.sim.events import Environment
from repro.streams import StreamConfig

from tests.streams.conftest import WINDOW, make_plane, make_source
from tests.streams.oracle import expected_windows, frame_rows, produced_records


def run_clean(grid, fleet, horizon=900.0):
    plane = make_plane()
    source = make_source(fleet, grid, plane)
    source.produce(0.0, horizon)
    plane.drain([source])
    return frame_rows(plane.open_firings())


def test_shard_crash_replays_to_oracle(grid, fleet):
    baseline = run_clean(grid, fleet)
    plane = make_plane()
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 900.0)
    rounds = 0
    while source.backlog or any(
        plane.shards[sid].queue for sid in plane.table.shard_ids()
    ):
        rounds += 1
        plane.pump([source])
        if rounds in (2, 5):
            plane.fail_shard(plane.table.shard_ids()[rounds % 2])
    plane.drain([source])
    assert len(plane.recovery_episodes) >= 2
    assert frame_rows(plane.open_firings()) == baseline
    audit = plane.audit([source])
    assert audit["silent_loss"] == 0


def test_replay_dedupes_committed_firings(grid, fleet):
    """Crash after committed-but-unchecked-pointed closings: the replay
    re-emits them and the committer must suppress every duplicate."""
    plane = make_plane(config=StreamConfig(
        window={"kind": "tumbling", "size": 60.0, "lateness": 0.0},
        queue_bound=8, service_rate=8, checkpoint_interval=50,
    ), shards=1)
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 300.0)
    plane.drain([source])
    committed_before = len(plane.committed)
    assert committed_before > 0
    assert len(plane.shards[0].log) > 0
    plane.fail_shard(0)
    plane.pump([source])
    assert plane.duplicates_suppressed > 0
    assert len(plane.committed) == committed_before


def test_fault_schedule_crash_shard_and_node(grid, fleet):
    baseline = run_clean(grid, fleet)
    env = Environment()
    injector = ChaosInjector(ChaosConfig(seed=5))
    schedule = FaultSchedule(env, injector)
    plane = make_plane(env=env)
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 900.0)
    schedule.crash_shard_at(90.0, plane, 0)
    schedule.crash_node_at(180.0, plane, plane.shards[1].node.name)
    plane.drain([source])
    assert {kind for _t, kind, _name in schedule.fired} == {
        "shard-crash", "node-crash",
    }
    assert plane.shard_failures >= 1
    assert sum(node.crashes for node in plane.topology) >= 1
    assert frame_rows(plane.open_firings()) == baseline
    assert plane.audit([source])["silent_loss"] == 0


def test_chaos_rate_churn_is_lossless(grid, fleet):
    baseline = run_clean(grid, fleet)
    injector = ChaosInjector(ChaosConfig(seed=9, shard_crash_rate=0.04))
    plane = make_plane(chaos=injector)
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 900.0)
    plane.drain([source])
    assert frame_rows(plane.open_firings()) == baseline
    audit = plane.audit([source])
    assert audit["silent_loss"] == 0
    assert plane.duplicates_suppressed >= 0  # dedupe armed throughout


def test_recovery_latency_is_recorded(grid, fleet):
    plane = make_plane()
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 300.0)
    plane.pump([source])
    plane.fail_shard(0)
    plane.drain([source])
    assert len(plane.recovery_episodes) >= 1
    assert len(plane.recovery_latencies()) == len(plane.recovery_episodes)
    assert all(seconds >= 0.0 for seconds in plane.recovery_latencies())


def test_same_seed_runs_are_identical(grid, fleet):
    def run():
        from repro.chaos.injector import ChaosConfig, ChaosInjector
        injector = ChaosInjector(ChaosConfig(seed=13, shard_crash_rate=0.05))
        plane = make_plane(chaos=injector)
        source = make_source(fleet, grid, plane)
        source.produce(0.0, 600.0)
        plane.drain([source])
        return (
            frame_rows(plane.open_firings()),
            plane.recovery_episodes,
            plane.duplicates_suppressed,
        )

    assert run() == run()


def test_oracle_matches_clean_run(grid, fleet):
    records = produced_records(fleet, grid.meters, 0.0, 900.0)
    assert run_clean(grid, fleet) == expected_windows(
        records, WINDOW["size"]
    )
