"""The degradation ladder, parking and quarantine on a live service."""

import pytest

import repro
from repro.errors import PlanningError
from repro.resilience import FaultInjector, FaultPlan, ResilienceConfig
from repro.resilience.faults import (
    CoordinatorOutage,
    CoordinatorSlowdown,
    NodeCrash,
)
from repro.service import AdmissionController, StreamQueryService


def build_resilient(events=(), seed=31, budget=8, config=None, plan_seed=0):
    net = repro.transit_stub_by_size(32, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(1, 3)),
        seed=seed + 1,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = repro.TopDownOptimizer(hierarchy, rates, ads=ads)
    faults = FaultInjector(FaultPlan(list(events), seed=plan_seed))
    service = StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=budget),
        resilience=config if config is not None else ResilienceConfig(),
        faults=faults,
    )
    return service, workload


def coordinators_of(service, query):
    """(leaf coordinator, parent coordinator) gating the query's ladder."""
    leaf = service.hierarchy.leaf_cluster(query.sink)
    parent = leaf.parent
    return leaf.coordinator, parent.coordinator if parent else leaf.coordinator


def deployment_of(service, name):
    return next(d for d in service.engine.state.deployments if d.query.name == name)


def query_with_distinct_coordinators(service, workload):
    for query in workload:
        leaf_coord, parent_coord = coordinators_of(service, query)
        if leaf_coord != parent_coord:
            return query, leaf_coord, parent_coord
    raise AssertionError("workload has no query with distinct coordinators")


class TestLadder:
    def test_healthy_service_stays_on_the_hierarchical_rung(self):
        service, workload = build_resilient()
        query = workload.queries[0]
        decision = service.submit(query, time=1.0)
        assert decision.admitted
        deployment = deployment_of(service, query.name)
        assert "resilience_rung" not in deployment.stats
        assert service.resilience.fallbacks_total == 0

    def test_leaf_outage_escalates_to_the_parent_coordinator(self):
        service0, workload = build_resilient()
        query, leaf_coord, parent_coord = query_with_distinct_coordinators(
            service0, workload
        )
        service, _ = build_resilient(
            [CoordinatorOutage(time=0.0, node=leaf_coord, duration=100.0)]
        )
        decision = service.submit(query, time=1.0)
        assert decision.admitted
        deployment = deployment_of(service, query.name)
        assert deployment.stats["resilience_rung"] == "parent"
        assert query.name in service.resilience.degraded_queries
        assert service.resilience.fallbacks_total == 1

    def test_total_coordinator_outage_falls_to_the_baseline(self):
        service0, workload = build_resilient()
        query, leaf_coord, parent_coord = query_with_distinct_coordinators(
            service0, workload
        )
        service, _ = build_resilient([
            CoordinatorOutage(time=0.0, node=leaf_coord, duration=100.0),
            CoordinatorOutage(time=0.0, node=parent_coord, duration=100.0),
        ])
        decision = service.submit(query, time=1.0)
        assert decision.admitted
        deployment = deployment_of(service, query.name)
        assert deployment.stats["resilience_rung"] == "baseline"
        # the degraded plan still lands on live hierarchy nodes only
        alive = service.hierarchy.root.subtree_nodes()
        assert set(deployment.placement.values()) <= alive

    def test_slow_coordinator_times_out_and_degrades(self):
        service0, workload = build_resilient()
        query, leaf_coord, parent_coord = query_with_distinct_coordinators(
            service0, workload
        )
        # rpc 0.05s x factor 50 >> the default 0.25s attempt timeout
        service, _ = build_resilient([
            CoordinatorSlowdown(time=0.0, node=leaf_coord, duration=100.0, factor=50.0),
            CoordinatorSlowdown(
                time=0.0, node=parent_coord, duration=100.0, factor=50.0
            ),
        ])
        decision = service.submit(query, time=1.0)
        assert decision.admitted
        assert deployment_of(service, query.name).stats["resilience_rung"] == "baseline"
        assert service.resilience.retries_total > 0


class TestBreakers:
    def test_repeated_failures_trip_the_coordinator_breaker(self):
        service0, workload = build_resilient()
        query, leaf_coord, _ = query_with_distinct_coordinators(service0, workload)
        config = ResilienceConfig(failure_threshold=1, recovery_time=50.0)
        service, _ = build_resilient(
            [CoordinatorOutage(time=0.0, node=leaf_coord, duration=100.0)],
            config=config,
        )
        service.submit(query, time=1.0)
        summary = service.resilience.summary()
        assert leaf_coord in summary["open_breakers"]
        assert summary["breaker_opens"] >= 1
        # while open, the rung is skipped without burning retries
        retries_before = service.resilience.retries_total
        other = repro.Query(
            f"{query.name}.again", query.sources, sink=query.sink,
            predicates=query.predicates,
        )
        service.submit(other, time=2.0)
        assert service.resilience.retries_total == retries_before

    def test_breaker_metrics_registered(self):
        service, _ = build_resilient()
        names = service.registry.names()
        for name in (
            "resilience_retries_total",
            "resilience_fallbacks_total",
            "resilience_breaker_opens_total",
            "resilience_parked_queries",
            "resilience_quarantined_nodes",
            "resilience_faults_applied_total",
            "resilience_backoff_seconds",
        ):
            assert name in names


class TestParking:
    def test_unplannable_query_parks_then_readmits_on_topology_change(self):
        service0, workload = build_resilient()
        query, leaf_coord, parent_coord = query_with_distinct_coordinators(
            service0, workload
        )
        service, _ = build_resilient([
            CoordinatorOutage(time=0.0, node=leaf_coord, duration=5.0),
            CoordinatorOutage(time=0.0, node=parent_coord, duration=5.0),
        ])

        class RaisingFallback:
            def plan(self, query, state):
                raise PlanningError("baseline offline too")

        real_fallback = service.resilience._fallback
        service.resilience._fallback = RaisingFallback()
        decision = service.submit(query, time=1.0)
        assert decision.status is repro.AdmissionStatus.QUEUED
        assert decision.reason.startswith("parked:")
        assert query.name in service.resilience.parked
        assert not service.is_live(query.name)

        # same epoch -> stays parked
        service.tick(2.0)
        assert query.name in service.resilience.parked

        # topology change past the outage window -> re-admitted
        service.resilience._fallback = real_fallback
        service.bump_topology_epoch()
        report = service.tick(6.0)
        assert query.name in report.deployed
        assert query.name not in service.resilience.parked
        assert service.is_live(query.name)

    def test_retire_drops_a_parked_query(self):
        service0, workload = build_resilient()
        query, leaf_coord, parent_coord = query_with_distinct_coordinators(
            service0, workload
        )
        service, _ = build_resilient([
            CoordinatorOutage(time=0.0, node=leaf_coord, duration=100.0),
            CoordinatorOutage(time=0.0, node=parent_coord, duration=100.0),
        ])

        class RaisingFallback:
            def plan(self, query, state):
                raise PlanningError("no")

        service.resilience._fallback = RaisingFallback()
        service.submit(query, time=1.0)
        assert query.name in service.resilience.parked
        assert service.retire(query.name) is False
        assert query.name not in service.resilience.parked
        with pytest.raises(KeyError):
            service.retire(query.name)


    def test_parked_name_cannot_be_resubmitted(self):
        service0, workload = build_resilient()
        query, leaf_coord, parent_coord = query_with_distinct_coordinators(
            service0, workload
        )
        service, _ = build_resilient([
            CoordinatorOutage(time=0.0, node=leaf_coord, duration=100.0),
            CoordinatorOutage(time=0.0, node=parent_coord, duration=100.0),
        ])

        class RaisingFallback:
            def plan(self, query, state):
                raise PlanningError("no")

        service.resilience._fallback = RaisingFallback()
        service.submit(query, time=1.0)
        assert service.parked_queries == [query.name]

        decision = service.submit(query, time=2.0)
        assert decision.rejected
        assert decision.reason == f"query {query.name!r} is already parked"
        assert query.name in service.resilience.parked
        assert not service.is_live(query.name)


class TestQuarantine:
    def test_flapping_node_is_quarantined_and_released(self):
        config = ResilienceConfig(quarantine_after=2, quarantine_ticks=10.0)
        service, workload = build_resilient(config=config)
        victim = next(iter(
            service.hierarchy.root.subtree_nodes()
            - {spec.source for spec in service.rates.streams.values()}
        ))
        service.resilience.breakers.breaker(victim).opened_count = 2
        epoch = service.topology_epoch
        service.resilience._quarantine_flapping(service, now=1.0)
        assert victim in service.resilience.quarantined
        assert victim not in service.hierarchy.root.subtree_nodes()
        assert service.topology_epoch > epoch
        assert service.hierarchy.invariant_violations() == []

        # before the quarantine expires nothing happens
        assert service.resilience.release_quarantined(service, now=5.0) == []
        released = service.resilience.release_quarantined(service, now=12.0)
        assert released == [victim]
        assert victim in service.hierarchy.root.subtree_nodes()
        assert service.hierarchy.invariant_violations() == []


class TestFaultApplication:
    def test_scripted_crash_and_rejoin_flow_through_ticks(self):
        service0, workload = build_resilient()
        protected = {spec.source for spec in service0.rates.streams.values()}
        protected |= {q.sink for q in workload}
        victim = next(iter(service0.hierarchy.root.subtree_nodes() - protected))
        service, _ = build_resilient([
            NodeCrash(time=2.0, node=victim, rejoin_after=3.0),
        ])
        for query in workload.queries[:4]:
            service.submit(query, time=1.0)
        service.tick(2.0)
        assert victim in service.faults.crashed
        assert victim not in service.hierarchy.root.subtree_nodes()
        assert any(e["kind"] == "crash" for e in service.faults.applied)
        for d in service.engine.state.deployments:
            assert victim not in set(d.placement.values())

        epoch = service.topology_epoch
        service.tick(5.0)
        assert victim not in service.faults.crashed
        assert victim in service.hierarchy.root.subtree_nodes()
        assert service.topology_epoch > epoch
        assert service.hierarchy.invariant_violations() == []
