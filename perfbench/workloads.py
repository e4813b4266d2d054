"""The three benchmark workloads, driven from outside through the public API.

Every workload is a closed loop: one process, one thread, one caller that
waits for each ``submit()`` decision and drives ``tick()`` as fast as it
returns.  A workload is run in *rounds*; one round builds everything from
the seed (topology, cost matrix, hierarchy, workload, controller -- the
timed set-up), drives the control plane through the whole workload, and
checks the outputs.  Rounds of one seed repeat the same work exactly, so
their deterministic results (costs, counts) must agree.

The network and the stream catalog of each workload are fixed (a
constant topology seed): they are the deployment the control plane runs
on.  The ``--seed`` draws the workload on it -- the queries and their
sinks, the re-estimated statistics, and with them which node fails.
Join counts are stratified (an equal share of every size in the range)
so that seeds differ in content, not in how much work they ask for.
``fleet_armed`` is the exception: see :data:`FLEET_QUERY_SEED`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.hierarchy as hierarchy_pkg
import repro.network.topology as topology
from repro.core.optimizer import make_optimizer
from repro.durability import DurabilityConfig
from repro.durability.harness import Scenario, digest
from repro.durability.recovery import recover
from repro.fleet.controller import FleetController
from repro.fleet.tenancy import Tenant
from repro.hierarchy.advertisements import AdvertisementIndex
from repro.obs.telemetry import TelemetryConfig
from repro.query.deployment import DeploymentState
from repro.query.query import Query
from repro.resources import NodeCapacity, ResourceConfig
from repro.service import AdmissionController, PlanCache, StreamQueryService, churn_trace
from repro.service.admission import AdmissionStatus
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import HotspotProfile
from repro.workload.statistics import estimate_statistics


@dataclass
class Round:
    """What one round measured, checked and counted."""

    setup_s: float = 0.0
    plan_ms: list[float] = field(default_factory=list)
    deploy_ms: list[float] = field(default_factory=list)
    tick_ms: list[float] = field(default_factory=list)
    call_ms: list[float] = field(default_factory=list)
    deployed: int = 0
    attempted: int = 0
    failed: int = 0
    cost: float = 0.0
    baseline_cost: float = 0.0
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def comm_cost_ratio(self) -> float:
        return self.cost / self.baseline_cost


# Candidate queries per join count; the seed picks a workload from them.
POOL_SIZE = 400
# Set-ups timed per run, at least (``setup_s`` is their median).
MIN_SETUPS = 11
# Wall seconds of one round on the calibration host; ``run.py`` runs
# ``--seconds / ROUND_S`` rounds.
ROUND_S = {"plan_cold": 5.5, "churn_cached": 4.5, "fleet_armed": 8.0}


# How often the loop samples the host's speed, in wall seconds.
HOST_SAMPLE_S = 0.05


def reference_work() -> int:
    """A fixed piece of interpreter work that uses none of the program's
    code."""
    total = 0
    for i in range(400):
        total += len(str(i % 97))
    return total


class Probe:
    """Marks benchmark-side bookkeeping (output checks) inside a round.

    ``with probe.paused():`` wraps every check; the time spent there is
    kept in :attr:`paused_s` so it can be taken out of a round's wall
    time.  :meth:`sample_host` is called before the round and once per
    step of its loop.
    The traced run subclasses it to also stop span recording and call
    counting, so checks never count as control-plane work.
    """

    def __init__(self) -> None:
        self.paused_s = 0.0
        self.reference_s: list[float] = []
        self._sampled_at = float("-inf")

    def sample_host(self) -> None:
        """Between control-plane calls, and at most every
        :data:`HOST_SAMPLE_S`, time :func:`reference_work` once;
        ``run.py`` reads from these samples how fast the host ran during
        the round."""
        if time.perf_counter() - self._sampled_at >= HOST_SAMPLE_S:
            self.sample_host_now()

    def sample_host_now(self) -> None:
        """Time :func:`reference_work` once, now."""
        with self.paused():
            t0 = time.perf_counter()
            reference_work()
            self._sampled_at = time.perf_counter()
            self.reference_s.append(self._sampled_at - t0)

    @contextlib.contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start


def _stratified_queries(network, num_streams, per_size, joins, catalog_seed, seed):
    """Distinct queries over one fixed stream catalog: ``per_size`` of each
    join count in ``joins``, drawn by ``seed`` and shuffled.

    Every join count gets a candidate pool from :func:`generate_workload`
    with ``catalog_seed``; the catalog is drawn before any query, so all
    pools share it.  Returns ``(workload, queries)``.
    """
    rng = np.random.default_rng(seed)
    base = None
    queries: list[Query] = []
    for j in joins:
        pool = generate_workload(
            network,
            WorkloadParams(
                num_streams=num_streams,
                num_queries=POOL_SIZE,
                joins_per_query=(j, j),
            ),
            seed=catalog_seed,
        )
        base = base or pool
        distinct = list({(tuple(q.sources), q.sink): q for q in pool.queries}.values())
        picks = rng.choice(len(distinct), size=per_size, replace=False)
        queries += [distinct[k] for k in sorted(picks)]
    order = rng.permutation(len(queries))
    queries = [
        Query(
            name=f"q{i}",
            sources=queries[k].sources,
            sink=queries[k].sink,
            predicates=queries[k].predicates,
            window=queries[k].window,
        )
        for i, k in enumerate(order)
    ]
    return base, queries


def direct_cost(rates, costs, queries) -> float:
    """Cost of shipping every source stream straight to its query's sink:
    the no-in-network-processing baseline ``comm_cost_ratio`` divides by."""
    return float(
        sum(
            rates.stream(s).rate * costs[rates.source(s), q.sink]
            for q in queries
            for s in q.sources
        )
    )


# ----------------------------------------------------------------------
# plan_cold
# ----------------------------------------------------------------------
PLAN_COLD_TOPOLOGY_SEED = 512
PLAN_COLD_PER_SIZE = 40


def _plan_cold_setup(seed):
    net = topology.transit_stub_by_size(512, seed=PLAN_COLD_TOPOLOGY_SEED)
    net.cost_matrix()
    hier = hierarchy_pkg.build_hierarchy(net, max_cs=8, seed=PLAN_COLD_TOPOLOGY_SEED)
    wl, queries = _stratified_queries(net, 30, PLAN_COLD_PER_SIZE, (2, 3, 4, 5), PLAN_COLD_TOPOLOGY_SEED, seed)
    return net, hier, wl.rate_model(), queries


def plan_cold(seed: int, probe: Probe, workdir: Path) -> Round:
    """Top-Down, then Bottom-Up, plan 160 distinct queries into a shared
    state with reuse on; no service, no cache."""
    out = Round()
    start = time.perf_counter()
    net, hier, rates, queries = _plan_cold_setup(seed)
    out.setup_s = time.perf_counter() - start
    costs = net.cost_matrix()
    leaves = reused = examined = 0
    for algorithm in ("top-down", "bottom-up"):
        ads = AdvertisementIndex(hier)
        for name, spec in rates.streams.items():
            ads.advertise_base(name, spec.source)
        optimizer = make_optimizer(algorithm, net, rates, hierarchy=hier, ads=ads)
        state = DeploymentState(
            costs, rates.rate_for, rates.source,
            reuse_inflation=rates.reuse_rate_inflation,
        )
        for query in queries:
            t0 = time.perf_counter()
            deployment = optimizer.plan(query, state)
            t1 = time.perf_counter()
            state.apply(deployment)
            ads.sync_from_state(state)
            t2 = time.perf_counter()
            out.plan_ms.append((t1 - t0) * 1e3)
            out.deploy_ms.append((t2 - t0) * 1e3)
            out.call_ms.append((t2 - t0) * 1e3)
            out.deployed += 1
            probe.sample_host()
            leaves += len(deployment.plan.leaves())
            reused += len(deployment.reused_leaves())
            examined += int(deployment.stats.get("plans_examined", 0))
        out.attempted += len(queries)
        with probe.paused():
            live = len(state.deployments)
            if live != len(queries):
                out.problems.append(f"{algorithm}: {live}/{len(queries)} queries deployed")
            cost = state.total_cost()
            recomputed = state.recompute_costs(costs)
            if not np.isclose(cost, recomputed, rtol=1e-9, atol=1e-9):
                out.problems.append(
                    f"{algorithm}: state cost {cost!r} != recomputed {recomputed!r}"
                )
            out.cost += cost
            out.baseline_cost += direct_cost(rates, costs, queries)
    out.tick_ms = out.deploy_ms
    with probe.paused():
        out.problems += [f"hierarchy: {v}" for v in hier.invariant_violations()]
    out.counters = {
        "query.reuse_ratio": reused / leaves,
        "core.plans_examined": examined,
        "query.comm_cost_abs": out.cost,
    }
    return out


# ----------------------------------------------------------------------
# Shared churn driver (churn_cached, fleet_armed)
# ----------------------------------------------------------------------
CHURN_TOPOLOGY_SEED = 128


def _churn_inputs(seed, per_size, repeats, lifetime, burst):
    """``per_size`` distinct queries of each of 2, 3 and 4 joins, resubmitted
    ``repeats`` times under fresh names, arriving in bursts of ``burst``
    every other tick (bursts make the admission queue fill and drain)."""
    net = topology.transit_stub_by_size(128, seed=CHURN_TOPOLOGY_SEED)
    net.cost_matrix()
    hier = hierarchy_pkg.build_hierarchy(net, max_cs=8, seed=CHURN_TOPOLOGY_SEED)
    wl, queries = _stratified_queries(net, 20, per_size, (2, 3, 4), CHURN_TOPOLOGY_SEED, seed)
    trace = [
        dataclasses.replace(event, time=2 * event.time - 1)
        for event in churn_trace(
            queries, lifetime=lifetime, arrivals_per_tick=burst, repeats=repeats
        )
    ]
    return net, hier, wl, trace


class _Loop:
    """Closed-loop bookkeeping: the wall time of every control-plane call
    and submit-to-live latency (queue wait included)."""

    def __init__(self, out: Round) -> None:
        self.out = out
        self.pending: dict[str, float] = {}

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.out.call_ms.append((t1 - t0) * 1e3)
        return t0, t1, result

    def submitted(self, name: str, status: AdmissionStatus, t0: float, t1: float) -> None:
        self.out.attempted += 1
        if status is AdmissionStatus.ADMITTED:
            self.out.deploy_ms.append((t1 - t0) * 1e3)
        elif status is AdmissionStatus.QUEUED:
            self.pending[name] = t0
        else:
            self.out.failed += 1

    def went_live(self, names, t1: float) -> None:
        for name in names:
            t0 = self.pending.pop(name, None)
            if t0 is not None:
                self.out.deploy_ms.append((t1 - t0) * 1e3)


class _Reuse:
    """Reused leaves over all leaves, taken from each query's first
    deployment."""

    def __init__(self) -> None:
        self.seen: set[str] = set()
        self.leaves = self.reused = 0

    def note(self, services) -> None:
        for service in services:
            for d in service.engine.state.deployments:
                if d.query.name not in self.seen:
                    self.seen.add(d.query.name)
                    self.leaves += len(d.plan.leaves())
                    self.reused += len(d.reused_leaves())

    @property
    def ratio(self) -> float:
        return self.reused / max(1, self.leaves)


def _plan_samples_ms(services) -> list[float]:
    """Per-plan optimizer wall times the services recorded themselves
    (cache hits are recorded as 0 and skipped)."""
    return [
        v * 1e3
        for s in services
        for _, v in s.metrics.series("service_planning_seconds")
        if v > 0
    ]


def _service_counters(services, max_depth: float) -> dict[str, float]:
    hits = sum(s.cache.hits for s in services)
    misses = sum(s.cache.misses for s in services)
    waits = [v for s in services for _, v in s.metrics.series("admission_queue_wait_ticks")]
    return {
        "service.cache_hit_ratio": hits / max(1, hits + misses),
        "service.queue_wait_ticks_p50": statistics.median(waits) if waits else 0.0,
        "service.queue_depth_max": max_depth,
        "service.rejected": sum(s.admission.rejected_total for s in services),
        "core.plans_examined": sum(
            s.registry.get("optimizer_plans_examined_total").value for s in services
        ),
    }


def _live_direct_cost(rates, costs, services) -> float:
    return direct_cost(
        rates, costs,
        [d.query for s in services for d in s.engine.state.deployments],
    )


# ----------------------------------------------------------------------
# churn_cached
# ----------------------------------------------------------------------
CHURN_PER_SIZE = 20
CHURN_REPEATS = 60


def _churn_cached_setup(seed):
    net, hier, wl, trace = _churn_inputs(seed, CHURN_PER_SIZE, CHURN_REPEATS, lifetime=5.0, burst=6)
    estimated = estimate_statistics(
        wl.streams, wl.selectivities, observation_time=1.0, seed=seed
    )
    rates = wl.rate_model()
    ads = AdvertisementIndex(hier)
    service = StreamQueryService(
        make_optimizer("top-down", net, rates, hierarchy=hier, ads=ads),
        net, rates, hierarchy=hier, ads=ads,
        admission=AdmissionController(budget=16, max_per_tick=4),
        cache=PlanCache(256),
    )
    return service, estimated, trace


def _failure_node(service, rates, trace) -> int:
    """The node that hosts no source or sink and the most live operators;
    ties go to the node coordinating the most clusters, then the lowest id."""
    protected = {rates.source(s) for s in rates.streams}
    protected |= {event.query.sink for event in trace}
    candidates = service.hierarchy.root.subtree_nodes() - protected
    operators = dict.fromkeys(candidates, 0)
    for d in service.engine.state.deployments:
        for node in d.placement.values():
            if node in operators:
                operators[node] += 1
    roles = dict.fromkeys(candidates, 0)
    for level in service.hierarchy.levels:
        for cluster in level:
            if cluster.coordinator in roles:
                roles[cluster.coordinator] += 1
    return min(candidates, key=lambda n: (-operators[n], -roles[n], n))


def churn_cached(seed: int, probe: Probe, workdir: Path) -> Round:
    """One Top-Down service under plan-cache-friendly churn, with one
    statistics re-estimate and one node failure + rejoin mid-run."""
    out = Round()
    start = time.perf_counter()
    service, estimated, trace = _churn_cached_setup(seed)
    out.setup_s = time.perf_counter() - start
    rates, costs = service.rates, service.network.cost_matrix()
    last = trace[-1].time
    reestimate_at, fail_at, rejoin_at = int(last * 0.4), int(last * 0.6), int(last * 0.6) + 4
    failed_node = None
    loop = _Loop(out)
    reuse = _Reuse()
    depth_max = 0
    clock, i = 0.0, 0
    while i < len(trace) or loop.pending or service.live_queries:
        clock += 1.0
        if clock > last + 200:
            out.problems.append("drain did not finish")
            break
        t0, t1, report = loop.call(service.tick, clock)
        out.tick_ms.append((t1 - t0) * 1e3)
        loop.went_live(report.deployed, t1)
        if clock == reestimate_at:
            loop.call(service.ingest_statistics, estimated)
        elif clock == fail_at:
            with probe.paused():
                failed_node = _failure_node(service, rates, trace)
            _, _, failure = loop.call(service.handle_node_failure, failed_node)
            if failure.lost:
                out.problems.append(f"node failure lost queries {failure.lost}")
        elif clock == rejoin_at:
            _, _, rejoined = loop.call(service.rejoin_node, failed_node)
            with probe.paused():
                if not rejoined:
                    out.problems.append(f"node {failed_node} did not rejoin")
                out.problems += [
                    f"hierarchy after rejoin: {v}"
                    for v in service.hierarchy.invariant_violations()
                ]
        while i < len(trace) and trace[i].time <= clock:
            event = trace[i]
            t0, t1, decision = loop.call(service.submit, event.query, lifetime=event.lifetime)
            loop.submitted(event.query.name, decision.status, t0, t1)
            i += 1
        probe.sample_host()
        with probe.paused():
            reuse.note([service])
            depth_max = max(depth_max, service.admission.queue_depth)
            out.cost += service.total_cost()
            out.baseline_cost += _live_direct_cost(rates, costs, [service])
    with probe.paused():
        out.deployed = service.deployed_total
        out.failed += len(loop.pending)
        if service.live_queries or service.admission.queue_depth:
            out.problems.append(
                f"after the drain {len(service.live_queries)} queries are live "
                f"and {service.admission.queue_depth} queued"
            )
        out.plan_ms = _plan_samples_ms([service])
        out.counters = _service_counters([service], depth_max)
        out.counters["query.comm_cost_abs"] = out.cost
        out.counters["query.reuse_ratio"] = reuse.ratio
    return out


# ----------------------------------------------------------------------
# fleet_armed
# ----------------------------------------------------------------------
FLEET_PER_SIZE = 25
FLEET_REPEATS = 5
FLEET_BUDGET = 12
SNAPSHOT_INTERVAL = 25
TENANTS = (Tenant("gold", weight=3.0), Tenant("bronze", weight=1.0))
# The fleet's queries and their arrival order are fixed; the seed draws
# which tenant submits each one.  Content and order decide how much
# contention, parking and re-planning the capacities cause, and with them
# every timing; drawn per seed they moved deploy p90 by a third from seed
# to seed.  Fixed, that load is the same for every seed.
FLEET_QUERY_SEED = 3
UTILIZATION_BOUND = 1.0


# Every deployment passes the ledger's gate; contention on the strong
# nodes sheds and parks a few queries on most seeds.  Tighter capacities
# make the amount of parking, and with it every timing, swing from seed
# to seed.  Bandwidth is generous because a query's sink must take its
# whole result stream.
HOTSPOT = HotspotProfile(
    cpu=2000.0, memory=2000.0, bandwidth=9000.0,
    weak_fraction=0.1, weak_scale=0.1, seed=CHURN_TOPOLOGY_SEED,
)


def _fleet_inputs():
    """Network, hierarchy, rates, capacities and trace of the armed fleet.
    Weak nodes come from :data:`HOTSPOT`, except that nodes hosting a
    source stream or a sink stay strong: a query's fixed endpoints on a
    weak node could leave it parked forever."""
    net, hier, wl, trace = _churn_inputs(
        FLEET_QUERY_SEED, FLEET_PER_SIZE, FLEET_REPEATS, lifetime=5.0, burst=6
    )
    rates = wl.rate_model()
    pinned = {rates.source(s) for s in rates.streams}
    pinned |= {event.query.sink for event in trace}
    strong = NodeCapacity(cpu=HOTSPOT.cpu, memory=HOTSPOT.memory, bandwidth=HOTSPOT.bandwidth)
    capacities = {
        node: strong if node in pinned else capacity
        for node, capacity in HOTSPOT.capacities(net).items()
    }
    return net, hier, rates, capacities, trace


def _make_fleet(inputs, state_dir):
    """A fresh armed fleet over ``inputs`` from :func:`_fleet_inputs`."""
    net, hier, rates, capacities, _ = inputs
    return FleetController(
        4, net, rates, hier,
        policy="hash",
        budget=FLEET_BUDGET,
        max_per_tick=3,
        tenants=TENANTS,
        federation=True,
        telemetry=TelemetryConfig(cadence=1.0),
        durability=DurabilityConfig(state_dir=str(state_dir), snapshot_interval=SNAPSHOT_INTERVAL),
        resources=ResourceConfig(capacities=capacities, utilization_bound=UTILIZATION_BOUND),
    )


def _ownership_problems(fleet) -> tuple[list[str], int]:
    """The fleet's ownership problems, and how many ``check_invariants()``
    lines were set aside as reports about capacity-parked queries.

    ``check_invariants()`` looks for a bound query among the shards' live
    and queued queries and the fleet backlog, but not among the queries a
    shard's resource manager has parked for capacity, so it reports each
    of those as "held nowhere" (a defect of the check, not of the fleet's
    state).  Such a line is set aside only when the query is parked at
    exactly the shard it is bound to and is live or queued nowhere; every
    other line is a problem, and so is a parked query bound elsewhere or
    parked twice.
    """
    lines = fleet.check_invariants()
    held = {
        name
        for shard in fleet.shards
        for name in shard.live_queries + shard.admission.queued_names()
    }
    problems, parked_at = [], {}
    for sid, manager in enumerate(fleet.resource_managers):
        for name in manager.parked:
            if name in parked_at:
                problems.append(f"query {name!r} parked at shards {parked_at[name]} and {sid}")
            parked_at[name] = sid
            owner = fleet.router.owner(name)
            if owner != sid:
                problems.append(f"query {name!r} parked at shard {sid} but bound to {owner}")
    reports = {
        f"query {name!r} bound to shard {sid} but held nowhere"
        for name, sid in parked_at.items()
        if name not in held
    }
    kept = [line for line in lines if line not in reports]
    return problems + kept, len(lines) - len(kept)


def fleet_armed(seed: int, probe: Probe, workdir: Path) -> Round:
    """A 4-shard, two-tenant fleet with federation, durability, telemetry
    and bounded capacities all armed.  Halfway through, the state
    directory is copied as a crashed disk would hold it; after the drain,
    ``recover()`` rebuilds a fleet from the copy, and its digest must equal
    the digest the uncrashed twin had at the crash."""
    out = Round()
    state_dir = Path(tempfile.mkdtemp(prefix="fleet-", dir=workdir))
    crash_dir = state_dir.with_name(state_dir.name + "-crashed")
    try:
        start = time.perf_counter()
        inputs = _fleet_inputs()
        fleet, trace = _make_fleet(inputs, state_dir), inputs[-1]
        out.setup_s = time.perf_counter() - start
        rates, costs = fleet.rates, fleet.network.cost_matrix()
        last = trace[-1].time
        crash_at = int(last * 0.5)
        twin_digest = None
        loop = _Loop(out)
        reuse = _Reuse()
        depth_max = peak_util = 0.0
        parked_reports = 0
        tenant_of = np.random.default_rng(seed).integers(len(TENANTS), size=len(trace))
        clock, i = 0.0, 0

        def busy() -> bool:
            return bool(
                fleet.live_queries
                or fleet.scheduler.total_backlog
                or any(s.admission.queue_depth for s in fleet.shards)
                or any(m.parked for m in fleet.resource_managers)
            )

        while i < len(trace) or loop.pending or busy():
            clock += 1.0
            if clock > last + 200:
                out.problems.append("drain did not finish")
                break
            t0, t1, report = loop.call(fleet.tick, clock)
            out.tick_ms.append((t1 - t0) * 1e3)
            loop.went_live([name for name, _ in report.deployed], t1)
            while i < len(trace) and trace[i].time <= clock:
                event = trace[i]
                t0, t1, decision = loop.call(
                    fleet.submit, event.query, lifetime=event.lifetime,
                    tenant=TENANTS[tenant_of[i]].name,
                )
                loop.submitted(event.query.name, decision.status, t0, t1)
                i += 1
            probe.sample_host()
            with probe.paused():
                reuse.note(fleet.shards)
                problems, reports = _ownership_problems(fleet)
                out.problems += [f"tick {clock}: {v}" for v in problems]
                parked_reports += reports
                util = fleet.resource_ledger.max_utilization()
                peak_util = max(peak_util, util)
                if util > UTILIZATION_BOUND + 1e-9:
                    out.problems.append(f"tick {clock}: utilization {util:.3f} over bound")
                depth_max = max(
                    depth_max,
                    fleet.scheduler.total_backlog
                    + sum(s.admission.queue_depth for s in fleet.shards),
                )
                out.cost += fleet.total_cost()
                out.baseline_cost += _live_direct_cost(rates, costs, fleet.shards)
                if clock == crash_at:
                    # The simulated crash: the state directory as the disk
                    # holds it at this instant.  The twin carries on.
                    shutil.copytree(state_dir, crash_dir)
                    twin_digest = digest(Scenario("fleet", None, [], []), fleet, extra_ticks=0)

        with probe.paused():
            out.deployed = sum(s.deployed_total for s in fleet.shards)
            out.failed += len(loop.pending)
            if busy():
                out.problems.append("after the drain the fleet still holds queries")
            out.plan_ms = _plan_samples_ms(fleet.shards)
            out.counters = _service_counters(fleet.shards, depth_max)
            managers = fleet.resource_managers
            out.counters.update({
                "query.comm_cost_abs": out.cost,
                "query.reuse_ratio": reuse.ratio,
                "fleet.cross_shard_reuse": fleet.cross_shard_reuse_total,
                "fleet.invariant_parked_reports": parked_reports,
                "resources.shed": sum(m.shed_total for m in managers),
                "resources.max_utilization": peak_util,
                "durability.journal_bytes": fleet.durability.journal.bytes_total,
                "obs.alerts_fired": sum(
                    a["fire_count"] for a in fleet.telemetry.alerts()
                ),
            })
            fleet.durability.journal.close()

        if twin_digest is None:
            out.problems.append("the run ended before the crash point")
            return out
        # The inputs are the program's configuration, already at hand; the
        # timed interval holds fleet construction, snapshot restore and
        # journal replay.
        t0 = time.perf_counter()
        recovered, report = recover(crash_dir, lambda: _make_fleet(inputs, crash_dir))
        out.counters["durability.recover_s"] = time.perf_counter() - t0
        out.counters["durability.recover.replayed_records"] = report.replayed_records
        with probe.paused():
            if digest(Scenario("fleet", None, [], []), recovered, extra_ticks=0) != twin_digest:
                out.problems.append("recovered fleet digest differs from the uncrashed twin")
            recovered.durability.journal.close()
        return out
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        shutil.rmtree(crash_dir, ignore_errors=True)


WORKLOADS = {
    "plan_cold": plan_cold,
    "churn_cached": churn_cached,
    "fleet_armed": fleet_armed,
}


def run(name: str, seed: int, probe: Probe, workdir: Path) -> Round:
    """One round of workload ``name``."""
    probe.sample_host()
    return WORKLOADS[name](seed, probe, workdir)


def time_setup(name: str, seed: int, workdir: Path, probe: Probe) -> float:
    """Wall time of one more set-up of ``name``, built and thrown away.
    ``probe`` samples the host's speed just before and just after."""
    for _ in range(10):
        probe.sample_host_now()
    start = time.perf_counter()
    if name == "plan_cold":
        _plan_cold_setup(seed)
    elif name == "churn_cached":
        _churn_cached_setup(seed)
    else:
        state_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=workdir))
        fleet = _make_fleet(_fleet_inputs(), state_dir)
    elapsed = time.perf_counter() - start
    if name == "fleet_armed":
        fleet.durability.journal.close()
        shutil.rmtree(state_dir, ignore_errors=True)
    for _ in range(10):
        probe.sample_host_now()
    return elapsed
