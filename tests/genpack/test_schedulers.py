"""Tests for GenPack, the baselines, and the simulation driver."""

import pytest

from repro.errors import SchedulingError
from repro.genpack.baselines import (
    FirstFitScheduler,
    RandomScheduler,
    SpreadScheduler,
)
from repro.genpack.cluster import Cluster
from repro.genpack.monitor import ResourceMonitor
from repro.genpack.scheduler import NURSERY, OLD, YOUNG, GenPackScheduler
from repro.genpack.simulation import ClusterSimulation, compare_schedulers
from repro.genpack.workload import ContainerWorkload, RunningContainer
from tests.genpack.test_cluster import running, spec

HOUR = 3600.0


def small_workload(seed=1, hours=6, rate=30.0):
    return ContainerWorkload(
        seed=seed, duration=hours * HOUR, arrival_rate_per_hour=rate
    )


class TestWorkloadGeneration:
    def test_deterministic(self):
        a = small_workload().generate()
        b = small_workload().generate()
        assert [s.container_id for s in a] == [s.container_id for s in b]
        assert [s.arrival for s in a] == [s.arrival for s in b]

    def test_arrivals_sorted_and_bounded(self):
        trace = small_workload().generate()
        arrivals = [s.arrival for s in trace]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < 6 * HOUR for a in arrivals)

    def test_requests_inflated_above_usage(self):
        for s in small_workload().generate():
            assert s.cpu_request >= s.cpu_usage_mean

    def test_class_mix(self):
        trace = ContainerWorkload(
            seed=3, duration=24 * HOUR, arrival_rate_per_hour=50
        ).generate()
        classes = {s.workload_class for s in trace}
        assert classes == {"batch", "service", "system"}
        batch = sum(1 for s in trace if s.workload_class == "batch")
        assert batch > len(trace) * 0.5

    def test_usage_sample_bounded(self):
        workload = small_workload()
        s = spec(cpu=4.0, usage=2.0)
        for _ in range(50):
            sample = workload.sample_usage(s)
            assert 0.05 <= sample <= s.cpu_request


class TestBaselines:
    def test_spread_picks_least_loaded(self):
        cluster = Cluster.homogeneous(3)
        scheduler = SpreadScheduler(cluster)
        scheduler.on_arrival(running("a", cpu=4.0), 0.0)
        second = scheduler.on_arrival(running("b", cpu=1.0), 0.0)
        assert second.cpu_requested == 1.0  # went to an empty server

    def test_spread_keeps_all_servers_on(self):
        cluster = Cluster.homogeneous(3)
        SpreadScheduler(cluster)
        assert len(cluster.powered_on) == 3

    def test_first_fit_powers_off_initially(self):
        cluster = Cluster.homogeneous(4)
        FirstFitScheduler(cluster, keep_on=1)
        assert len(cluster.powered_on) == 1

    def test_first_fit_wakes_servers_on_pressure(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=4.0)
        scheduler = FirstFitScheduler(cluster, keep_on=1)
        scheduler.on_arrival(running("a", cpu=4.0), 0.0)
        scheduler.on_arrival(running("b", cpu=4.0), 0.0)
        assert len(cluster.powered_on) == 2

    def test_first_fit_tick_powers_off_empty(self):
        cluster = Cluster.homogeneous(2, cpu_capacity=4.0)
        scheduler = FirstFitScheduler(cluster, keep_on=1)
        a = running("a", cpu=4.0)
        b = running("b", cpu=4.0)
        scheduler.on_arrival(a, 0.0)
        scheduler.on_arrival(b, 0.0)
        scheduler.on_departure(b, 10.0)
        scheduler.on_tick(10.0)
        assert len(cluster.powered_on) == 1

    def test_random_deterministic_with_seed(self):
        placements = []
        for _attempt in range(2):
            cluster = Cluster.homogeneous(5)
            scheduler = RandomScheduler(cluster, seed=9)
            names = [
                scheduler.on_arrival(running("c%d" % i), 0.0).name
                for i in range(10)
            ]
            placements.append(names)
        assert placements[0] == placements[1]

    def test_rejection_when_full(self):
        cluster = Cluster.homogeneous(1, cpu_capacity=2.0)
        scheduler = SpreadScheduler(cluster)
        scheduler.on_arrival(running("a", cpu=2.0), 0.0)
        with pytest.raises(SchedulingError):
            scheduler.on_arrival(running("b", cpu=1.0), 0.0)
        assert scheduler.rejected == 1


class TestGenPack:
    def make(self, servers=10):
        cluster = Cluster.homogeneous(servers)
        workload = small_workload()
        monitor = ResourceMonitor(workload)
        scheduler = GenPackScheduler(cluster, monitor)
        return cluster, monitor, scheduler

    def test_generations_assigned(self):
        cluster, _monitor, _scheduler = self.make()
        generations = {server.generation for server in cluster.servers}
        assert generations == {NURSERY, YOUNG, OLD}

    def test_new_containers_go_to_nursery(self):
        _cluster, _monitor, scheduler = self.make()
        container = running("a")
        server = scheduler.on_arrival(container, 0.0)
        assert server.generation == NURSERY
        assert container.generation == NURSERY

    def test_profiled_containers_promoted_to_young(self):
        _cluster, monitor, scheduler = self.make()
        container = running("a", cpu=4.0)
        scheduler.on_arrival(container, 0.0)
        container.usage_samples = [1.0, 1.0]  # profiled
        scheduler.on_tick(600.0)
        assert container.generation == YOUNG
        assert container.server.generation == YOUNG

    def test_aged_containers_promoted_to_old(self):
        _cluster, _monitor, scheduler = self.make()
        container = running("a", cpu=4.0)
        scheduler.on_arrival(container, 0.0)
        container.usage_samples = [1.0, 1.0]
        scheduler.on_tick(600.0)
        scheduler.on_tick(2 * HOUR)
        assert container.generation == OLD

    def test_empty_non_nursery_servers_powered_off(self):
        cluster, _monitor, scheduler = self.make()
        scheduler.on_tick(300.0)
        for server in cluster.servers:
            if server.generation != NURSERY:
                assert not server.powered_on

    def test_usage_based_packing_tighter_than_requests(self):
        """Two 8-core-request containers using 2 cores share a server."""
        _cluster, _monitor, scheduler = self.make()
        first = running("a", cpu=8.0)
        second = running("b", cpu=8.0)
        scheduler.on_arrival(first, 0.0)
        scheduler.on_arrival(second, 0.0)
        first.usage_samples = [2.0, 2.0]
        second.usage_samples = [2.0, 2.0]
        scheduler.on_tick(600.0)
        assert first.generation == YOUNG and second.generation == YOUNG
        assert first.server is second.server

    def test_cluster_invariants_hold_through_churn(self):
        cluster, _monitor, scheduler = self.make()
        containers = [running("c%d" % i, cpu=2.0) for i in range(12)]
        for i, container in enumerate(containers):
            scheduler.on_arrival(container, float(i))
            container.usage_samples = [1.0, 1.0]
        scheduler.on_tick(600.0)
        cluster.check_invariants()
        for container in containers[:6]:
            scheduler.on_departure(container, 700.0)
        scheduler.on_tick(900.0)
        cluster.check_invariants()


class TestSimulation:
    def test_simulation_completes_containers(self):
        workload = small_workload(hours=4, rate=20)
        cluster = Cluster.homogeneous(20)
        monitor = ResourceMonitor(workload)
        scheduler = GenPackScheduler(cluster, monitor)
        result = ClusterSimulation(
            cluster, scheduler, workload, monitor=monitor
        ).run(check_invariants_every=50)
        assert result.completed > 0
        assert result.energy_kwh > 0
        assert result.rejected == 0

    def test_compare_schedulers_runs_same_trace(self):
        workload = small_workload(hours=4, rate=20)
        results = compare_schedulers(
            make_cluster=lambda: Cluster.homogeneous(20),
            make_schedulers=[
                lambda cluster, monitor: SpreadScheduler(cluster),
                lambda cluster, monitor: GenPackScheduler(cluster, monitor),
            ],
            workload=workload,
        )
        assert set(results) == {"spread", "genpack"}
        assert results["spread"].completed == results["genpack"].completed

    def test_genpack_saves_energy_vs_spread(self):
        """Reproduces the paper's Section VI claim qualitatively."""
        workload = small_workload(hours=8, rate=60)
        results = compare_schedulers(
            make_cluster=lambda: Cluster.homogeneous(30),
            make_schedulers=[
                lambda cluster, monitor: SpreadScheduler(cluster),
                lambda cluster, monitor: FirstFitScheduler(cluster),
                lambda cluster, monitor: GenPackScheduler(cluster, monitor),
            ],
            workload=workload,
        )
        genpack = results["genpack"]
        assert genpack.energy_kwh < results["first-fit"].energy_kwh
        assert genpack.energy_savings_vs(results["spread"]) > 0.15
        assert genpack.average_servers_on < results["spread"].average_servers_on

    def test_energy_savings_vs_self_is_zero(self):
        workload = small_workload(hours=2, rate=10)
        cluster = Cluster.homogeneous(10)
        monitor = ResourceMonitor(workload)
        result = ClusterSimulation(
            cluster, GenPackScheduler(cluster, monitor), workload, monitor=monitor
        ).run()
        assert result.energy_savings_vs(result) == pytest.approx(0.0)
