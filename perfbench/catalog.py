"""Every metric the benchmark prints, with what it means and what moves it.

``BENCHMARK.json`` is the one list of metric names, units, directions and
bounds; this module reads it and adds, for each metric, the layer it
belongs to and -- for a per-layer metric -- the end-to-end metrics it
should move, the workloads where it does its work (it should move there)
and, by implication, the workloads where it should stay put.  A metric
named in one place and not the other is an error at import.
``python3 perfbench/catalog.py`` prints the merged table as JSON; it also
records the workloads' seeds.

Layers are the packages under ``src/repro/``.  ``.calls`` is a count of
calls into the span, ``.self_s`` the span's time minus its child spans.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

WORKLOADS = {
    "plan_cold": {"seed": 1, "held_out_seed": 1001},
    "churn_cached": {"seed": 1, "held_out_seed": 1001},
    # The seed draws only each submission's tenant; the load, parking
    # included, is the same for every seed.
    "fleet_armed": {"seed": 3, "held_out_seed": 1001},
}

LAYERS = (
    "network", "hierarchy", "query", "core", "runtime",
    "service", "fleet", "resources", "durability", "obs",
)

ALL = ("plan_cold", "churn_cached", "fleet_armed")
SERVED = ("churn_cached", "fleet_armed")


class Metric(NamedTuple):
    layer: str
    moves: tuple[str, ...] = ()
    works_in: tuple[str, ...] = ALL


def _m(layer, moves=(), works_in=ALL):
    return Metric(layer, tuple(dict.fromkeys(moves)), tuple(works_in))


END_TO_END_METRICS = {
    "setup_s": _m("all"),
    "deploy_ms_p50": _m("all"),
    "deploy_ms_p90": _m("all"),
    "plan_ms_p50": _m("core"),
    "plan_ms_p90": _m("core"),
    "tick_ms_p90": _m("all"),
    "deploys_per_s": _m("all"),
    "comm_cost_ratio": _m("core"),
    "served_frac": _m("all"),
    "peak_rss_mb": _m("all"),
}

_PLAN = ("plan_ms_p50", "plan_ms_p90", "deploys_per_s")
_DEPLOY = ("deploy_ms_p50", "deploy_ms_p90", "deploys_per_s")
_HIER = ("plan_cold", "churn_cached")
_FLEET = ("fleet_armed",)


def _layer_metrics():
    t = {
        "network.topology.self_s": _m("network", ["setup_s"]),
        "network.cost_matrix.calls": _m("network", ["setup_s", "tick_ms_p90"]),
        "network.cost_matrix.self_s": _m("network", ["setup_s", "tick_ms_p90"]),
        "hierarchy.build.self_s": _m("hierarchy", ["setup_s"]),
        "hierarchy.ads_sync.calls": _m("hierarchy", _PLAN + _DEPLOY, _HIER),
        "hierarchy.ads_sync.self_s": _m("hierarchy", _PLAN + _DEPLOY, _HIER),
        "hierarchy.maintenance.calls": _m("hierarchy", ["tick_ms_p90"], ["churn_cached"]),
        "hierarchy.maintenance.self_s": _m("hierarchy", ["tick_ms_p90"], ["churn_cached"]),
        "core.top_down.plan.calls": _m("core", _PLAN + _DEPLOY),
        "core.top_down.plan.self_s": _m("core", _PLAN + _DEPLOY),
        "core.bottom_up.plan.calls": _m("core", _PLAN, ["plan_cold"]),
        "core.bottom_up.plan.self_s": _m("core", _PLAN, ["plan_cold"]),
        "core.trees_enumerated": _m("core", _PLAN, _HIER),
        "core.placements": _m("core", _PLAN, _HIER),
        "core.cost_evaluations": _m("core", _PLAN, _HIER),
        "core.plans_examined": _m("core", _PLAN, _HIER),
        "query.state_apply.calls": _m("query", _PLAN + _DEPLOY, _HIER),
        "query.state_apply.self_s": _m("query", _PLAN + _DEPLOY, _HIER),
        "query.state_undeploy.calls": _m("query", _DEPLOY, SERVED),
        "query.state_undeploy.self_s": _m("query", _DEPLOY, SERVED),
        "query.reuse_ratio": _m("query", ["comm_cost_ratio"]),
        "query.comm_cost_abs": _m("query", ["comm_cost_ratio"]),
        "runtime.engine_deploy.calls": _m("runtime", _DEPLOY, SERVED),
        "runtime.engine_deploy.self_s": _m("runtime", _DEPLOY, SERVED),
        "service.submit.calls": _m("service", _DEPLOY, SERVED),
        "service.submit.self_s": _m("service", _DEPLOY, SERVED),
        "service.tick.calls": _m("service", ["tick_ms_p90"], SERVED),
        "service.tick.self_s": _m("service", ["tick_ms_p90"], SERVED),
        "service.plan.calls": _m("service", _DEPLOY, SERVED),
        "service.plan.self_s": _m("service", _DEPLOY, SERVED),
        "service.cache_hit_ratio": _m("service", _DEPLOY, SERVED),
        "service.cache_revalidation_failures": _m("service", _DEPLOY, SERVED),
        "service.queue_wait_ticks_p50": _m("service", _DEPLOY, SERVED),
        "service.queue_depth_max": _m("service", _DEPLOY, SERVED),
        "service.rejected": _m("service", ["served_frac"], SERVED),
        "fleet.submit.self_s": _m("fleet", _DEPLOY, _FLEET),
        "fleet.tick.self_s": _m("fleet", ["tick_ms_p90", "deploys_per_s"], _FLEET),
        "fleet.federation_sync.calls": _m("fleet", ["tick_ms_p90"], _FLEET),
        "fleet.federation_sync.self_s": _m("fleet", ["tick_ms_p90"], _FLEET),
        "fleet.cross_shard_reuse": _m("fleet", ["comm_cost_ratio"], _FLEET),
        # check_invariants() lines about capacity-parked queries, set aside
        # by the benchmark (see workloads._ownership_problems).
        "fleet.invariant_parked_reports": _m("fleet", [], _FLEET),
        "resources.node_loads.calls": _m("resources", ["tick_ms_p90", "deploy_ms_p90"], _FLEET),
        "resources.node_loads.self_s": _m("resources", ["tick_ms_p90", "deploy_ms_p90"], _FLEET),
        "resources.gate.calls": _m("resources", ["deploy_ms_p90"], _FLEET),
        "resources.gate.self_s": _m("resources", ["deploy_ms_p90"], _FLEET),
        "resources.gate_pass_ratio": _m("resources", ["served_frac", "deploy_ms_p90"], _FLEET),
        "resources.plan_feasible.self_s": _m("resources", ["deploy_ms_p90"], _FLEET),
        "resources.record_gauges.self_s": _m("resources", ["tick_ms_p90"], _FLEET),
        "resources.replans_per_deploy": _m("resources", ["deploy_ms_p90"], _FLEET),
        "resources.shed": _m("resources", ["served_frac"], _FLEET),
        "resources.parked": _m("resources", ["served_frac", "deploy_ms_p90"], _FLEET),
        "resources.max_utilization": _m("resources", ["served_frac"], _FLEET),
        "durability.journal_append.calls": _m("durability", ["tick_ms_p90"], _FLEET),
        "durability.journal_append.self_s": _m("durability", ["tick_ms_p90"], _FLEET),
        "durability.journal_bytes": _m("durability", ["tick_ms_p90"], _FLEET),
        "durability.snapshot.calls": _m("durability", ["tick_ms_p90"], _FLEET),
        "durability.snapshot.self_s": _m("durability", ["tick_ms_p90"], _FLEET),
        "durability.snapshot_bytes": _m("durability", ["tick_ms_p90"], _FLEET),
        "durability.recover_s": _m("durability", [], _FLEET),
        "durability.recover.replayed_records": _m("durability", [], _FLEET),
        "obs.telemetry_tick.calls": _m("obs", ["tick_ms_p90"], _FLEET),
        "obs.telemetry_tick.self_s": _m("obs", ["tick_ms_p90"], _FLEET),
        "obs.alerts_fired": _m("obs", [], _FLEET),
    }
    for layer in LAYERS:
        t[f"{layer}.self_s"] = _m(layer, ["tick_ms_p90", "deploys_per_s"])
    for layer in LAYERS:
        t[f"calls.{layer}"] = _m(layer, ["deploys_per_s"])
    t["checks_failed"] = _m("all", ["served_frac"])
    t["trace.overhead_frac"] = _m("all")
    t["trace.unattributed_frac"] = _m("all")
    return t


PER_LAYER_METRICS = _layer_metrics()


def _listed(kind: str, described: dict) -> dict[str, dict]:
    """The ``kind`` metrics of ``BENCHMARK.json`` by name, each merged
    with its description here."""
    listed = {m["name"]: m for m in json.loads(BENCHMARK.read_text())[kind]}
    if list(listed) != list(described):
        raise RuntimeError(
            f"{kind} metrics of BENCHMARK.json and catalog.py differ: "
            f"{sorted(set(listed) ^ set(described))}"
        )
    return {name: {**listed[name], **described[name]._asdict()} for name in listed}


END_TO_END = {name: m["unit"] for name, m in _listed("end_to_end", END_TO_END_METRICS).items()}
PER_LAYER = {name: m["unit"] for name, m in _listed("per_layer", PER_LAYER_METRICS).items()}


if __name__ == "__main__":
    print(json.dumps(
        {
            "workloads": WORKLOADS,
            "end_to_end": _listed("end_to_end", END_TO_END_METRICS),
            "per_layer": _listed("per_layer", PER_LAYER_METRICS),
        },
        indent=1,
    ))
