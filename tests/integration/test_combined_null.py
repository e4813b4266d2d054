"""Every combination of neutral layers must change nothing.

The per-layer ``test_regression_null.py`` suites arm one layer at a
time.  This suite arms every subset of two or more of the five optional
service layers -- each in its neutral configuration -- and checks that
the service still makes the plain service's decisions, tick for tick and
cost for cost.  A fleet case arms telemetry, durability and unbounded
resources together.
"""

from itertools import combinations

import pytest

import repro
from repro.adaptive import AdaptivityConfig
from repro.durability import DurabilityConfig
from repro.fleet import FleetController
from repro.obs.telemetry import TelemetryConfig
from repro.resilience import ResilienceConfig
from repro.resources import ResourceConfig
from repro.service import AdmissionController, StreamQueryService, churn_trace

#: summary keys that depend on wall-clock or on the optional layers
_EXCLUDED = {
    "planning_seconds",
    "queries_per_second",
    "resilience",
    "faults",
    "adaptivity",
    "resources",
}

#: constructor argument -> neutral configuration (durability needs a
#: state directory, so it takes one)
_NEUTRAL = {
    "resilience": lambda state_dir: ResilienceConfig(),
    "adaptivity": lambda state_dir: AdaptivityConfig(),
    "telemetry": lambda state_dir: TelemetryConfig(),
    "durability": lambda state_dir: DurabilityConfig(state_dir=str(state_dir)),
    "resources": lambda state_dir: ResourceConfig(),
}

_SUBSETS = [
    subset
    for size in range(2, len(_NEUTRAL) + 1)
    for subset in combinations(sorted(_NEUTRAL), size)
]


def _inputs(seed=47):
    net = repro.transit_stub_by_size(32, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(1, 3)),
        seed=seed + 1,
    )
    return net, hierarchy, workload


def build_service(**layers):
    net, hierarchy, workload = _inputs()
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = repro.TopDownOptimizer(hierarchy, rates, ads=ads)
    service = StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=6),
        **layers,
    )
    return service, workload


def clean(summary):
    return {k: v for k, v in summary.items() if k not in _EXCLUDED}


def test_subsets_cover_every_combination_of_two_or_more():
    assert len(_SUBSETS) == 26


@pytest.mark.parametrize("subset", _SUBSETS, ids="+".join)
def test_armed_subset_matches_the_plain_service(subset, tmp_path):
    plain, workload = build_service()
    armed, _ = build_service(
        **{name: _NEUTRAL[name](tmp_path / "state") for name in subset}
    )
    for name in subset:
        assert getattr(armed, name) is not None

    trace = churn_trace(workload, lifetime=4.0, repeats=2)
    report_plain = plain.replay(list(trace))
    report_armed = armed.replay(list(trace))

    assert report_armed.decisions == report_plain.decisions
    assert report_armed.ticks == report_plain.ticks
    assert clean(report_armed.summary) == clean(report_plain.summary)
    assert armed.total_cost() == plain.total_cost()


def test_fleet_with_telemetry_durability_and_unbounded_resources(tmp_path):
    net, hierarchy, workload = _inputs()
    rates = workload.rate_model()

    def build(**layers):
        return FleetController(
            2, net, rates, hierarchy, policy="hash", budget=4, **layers
        )

    plain = build()
    armed = build(
        telemetry=TelemetryConfig(),
        durability=DurabilityConfig(state_dir=str(tmp_path / "state")),
        resources=ResourceConfig(),
    )
    trace = churn_trace(workload, lifetime=4.0, repeats=2)
    report_plain = plain.replay(list(trace))
    report_armed = armed.replay(list(trace))

    assert report_armed.decisions == report_plain.decisions
    assert report_armed.ticks == report_plain.ticks
    assert clean(report_armed.summary) == clean(report_plain.summary)
    assert armed.total_cost() == plain.total_cost()
    assert armed.check_invariants() == plain.check_invariants() == []
    assert armed.durability.journal.records_total > 0
