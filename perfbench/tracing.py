"""The traced run: per-layer spans, op counts and interpreter call counts.

Spans are recorded by wrappers that this module installs around the
public entry points of each layer (:data:`POINTS`) for the length of one
round and removes afterwards; ``src/`` is not edited.  A span is
``[name, start, end, parent index, raised]``; every span of a run shares
the run id.  Spans stay in memory and are written to
``.bench_out/spans-<workload>.json`` when the run ends.  A layer's self
time is the time of its spans minus the time of their child spans.

Call counts come from a separate round under :func:`sys.setprofile`,
filed by the package of the called function's source file; they are
deterministic for a seed (``run.py`` fixes ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from pathlib import Path

from perfbench import catalog, workloads
from repro.perf import profiled

# (span name, module, attribute path) -- classes are patched in place,
# module functions in every loaded module that bound them by name.
POINTS = (
    ("network.topology", "repro.network.topology", "transit_stub_by_size"),
    ("network.cost_matrix", "repro.network.graph", "Network.cost_matrix"),
    ("hierarchy.build", "repro.hierarchy.hierarchy", "build_hierarchy"),
    ("hierarchy.ads_sync", "repro.hierarchy.advertisements", "AdvertisementIndex.sync_from_state"),
    ("hierarchy.maintenance", "repro.hierarchy.maintenance", "add_node"),
    ("hierarchy.maintenance", "repro.hierarchy.maintenance", "remove_node"),
    ("core.top_down.plan", "repro.core.top_down", "TopDownOptimizer.plan"),
    ("core.bottom_up.plan", "repro.core.bottom_up", "BottomUpOptimizer.plan"),
    ("query.state_apply", "repro.query.deployment", "DeploymentState.apply"),
    ("query.state_undeploy", "repro.query.deployment", "DeploymentState.undeploy"),
    ("runtime.engine_deploy", "repro.runtime.engine", "FlowEngine.deploy"),
    ("runtime.engine_deploy", "repro.runtime.engine", "FlowEngine.undeploy"),
    ("service.init", "repro.service.service", "StreamQueryService.__init__"),
    ("service.submit", "repro.service.service", "StreamQueryService.submit"),
    ("service.tick", "repro.service.service", "StreamQueryService.tick"),
    ("service.plan", "repro.service.service", "StreamQueryService.plan"),
    ("service.ingest_statistics", "repro.service.service", "StreamQueryService.ingest_statistics"),
    ("service.node_failure", "repro.service.service", "StreamQueryService.handle_node_failure"),
    ("service.rejoin", "repro.service.service", "StreamQueryService.rejoin_node"),
    ("service.cache_demote", "repro.service.cache", "PlanCache.demote"),
    ("fleet.init", "repro.fleet.controller", "FleetController.__init__"),
    ("fleet.submit", "repro.fleet.controller", "FleetController.submit"),
    ("fleet.tick", "repro.fleet.controller", "FleetController.tick"),
    ("fleet.federation_sync", "repro.fleet.federation", "ReuseFederation.sync"),
    ("resources.node_loads", "repro.resources.ledger", "ResourceLedger.node_loads"),
    ("resources.gate", "repro.resources.manager", "ResourceManager.gate"),
    ("resources.plan_feasible", "repro.resources.manager", "ResourceManager.plan_feasible"),
    ("resources.record_gauges", "repro.resources.manager", "ResourceManager.record_gauges"),
    ("resources.park", "repro.resources.manager", "ResourceManager.park"),
    ("resources.step", "repro.resources.manager", "ResourceManager.step"),
    ("durability.journal_append", "repro.durability.journal", "Journal.append"),
    ("durability.snapshot", "repro.durability", "Durability.snapshot"),
    ("durability.recover", "repro.durability.recovery", "recover"),
    ("obs.telemetry_tick", "repro.obs.telemetry", "Telemetry.on_service_tick"),
    ("obs.telemetry_tick", "repro.obs.telemetry", "Telemetry.on_fleet_tick"),
    ("workload.generate", "repro.workload.generator", "generate_workload"),
    ("workload.estimate", "repro.workload.statistics", "estimate_statistics"),
    ("service.churn_trace", "repro.service.service", "churn_trace"),
)

OP_COUNTS = ("trees_enumerated", "placements", "cost_evaluations")


class SpanLog:
    """In-memory span recorder behind the wrappers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.snapshot_bytes = 0
        self.paused = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        log = self

        def traced(*args, **kwargs):
            if log.paused:
                return fn(*args, **kwargs)
            index = len(log.spans)
            span = [name, 0.0, 0.0, log._stack[-1] if log._stack else -1, False]
            log.spans.append(span)
            log._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                log._stack.pop()
            if name == "durability.snapshot":
                log.snapshot_bytes += Path(result).stat().st_size
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every point; returns the function that unwraps them."""
        undo = []
        for name, module_name, path in POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                own = cls.__dict__.get(attr)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                undo.append((cls, attr, own))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if not mod_name.startswith(("repro", "perfbench")):
                    continue
                if getattr(mod, path, None) is original:
                    setattr(mod, path, wrapped)
                    undo.append((mod, path, original))

        def uninstall():
            for owner, attr, original in reversed(undo):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

        return uninstall

    def summary(self) -> dict:
        """Calls, self time and raised count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
            entry["raised"] += raised
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "raised"],
            "spans": self.spans,
        }))


class CallCounter:
    """Counts Python function calls by the ``repro`` package they live in."""

    def __init__(self, src: Path) -> None:
        self.prefix = str(src / "repro") + os.sep
        self.counts: dict[str, int] = {}
        self._package: dict[str, str | None] = {}

    def _profile(self, frame, event, arg):
        if event != "call":
            return
        filename = frame.f_code.co_filename
        package = self._package.get(filename, "")
        if package == "":
            package = None
            if filename.startswith(self.prefix):
                package = filename[len(self.prefix):].split(os.sep)[0]
            self._package[filename] = package
        if package is not None:
            self.counts[package] = self.counts.get(package, 0) + 1

    def start(self) -> None:
        sys.setprofile(self._profile)

    def stop(self) -> None:
        sys.setprofile(None)


class TracingProbe(workloads.Probe):
    """Pauses span recording and call counting around output checks."""

    def __init__(self, log: SpanLog | None = None, counter: CallCounter | None = None) -> None:
        super().__init__()
        self.log, self.counter = log, counter

    @contextlib.contextmanager
    def paused(self):
        if self.counter is not None:
            self.counter.stop()
        if self.log is not None:
            self.log.paused = True
        try:
            with super().paused():
                yield
        finally:
            if self.log is not None:
                self.log.paused = False
            if self.counter is not None:
                self.counter.start()


def _timed_round(name, seed, probe, workdir):
    start = time.perf_counter()
    result = workloads.run(name, seed, probe, workdir)
    return result, time.perf_counter() - start - probe.paused_s


def run_traced(name: str, seed: int, workdir: Path, out_dir: Path) -> dict:
    """Untraced round, traced round, untraced round, counting round;
    returns the per-layer metrics of the traced round.  The untraced
    rounds on either side of the traced one are its reference."""
    _, before_s = _timed_round(name, seed, workloads.Probe(), workdir)

    log = SpanLog(f"{name}-{seed}-{os.getpid()}-{time.time_ns()}")
    uninstall = log.install()
    try:
        with profiled() as prof:
            traced, traced_s = _timed_round(name, seed, TracingProbe(log=log), workdir)
    finally:
        uninstall()
    _, after_s = _timed_round(name, seed, workloads.Probe(), workdir)
    reference_s = (before_s + after_s) / 2

    counter = CallCounter(Path(workloads.__file__).resolve().parent.parent / "src")
    probe = TracingProbe(counter=counter)
    counter.start()
    try:
        counted, _ = _timed_round(name, seed, probe, workdir)
    finally:
        counter.stop()
    log.write(out_dir / f"spans-{name}.json")

    spans = log.summary()

    def span(key, field):
        return spans.get(key, {}).get(field, 0)

    span_names = {name for name, _, _ in POINTS}
    metrics = {key: 0.0 for key in catalog.PER_LAYER}
    for key in catalog.PER_LAYER:
        head, _, field = key.rpartition(".")
        if field in ("calls", "self_s") and head in span_names:
            metrics[key] = span(head, field)
    for layer in catalog.LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in spans.items() if k.split(".")[0] == layer
        )
        metrics[f"calls.{layer}"] = counter.counts.get(layer, 0)
    for op in OP_COUNTS:
        metrics[f"core.{op}"] = prof.ops.get(op, 0)
    for key, value in traced.counters.items():
        if key in metrics:
            metrics[key] = value
    gates = span("resources.gate", "calls")
    metrics.update({
        "service.cache_revalidation_failures": span("service.cache_demote", "calls"),
        "resources.gate_pass_ratio": (
            (gates - span("resources.gate", "raised")) / gates if gates else 0.0
        ),
        "resources.replans_per_deploy": span("service.plan", "calls") / max(1, traced.deployed),
        "resources.parked": span("resources.park", "calls"),
        "durability.snapshot_bytes": log.snapshot_bytes,
        "trace.overhead_frac": traced_s / reference_s - 1.0,
        "trace.unattributed_frac": 1.0 - sum(v["self_s"] for v in spans.values()) / traced_s,
        "checks_failed": len(traced.problems),
    })
    problems = list(traced.problems)
    if (counted.cost, counted.deployed) != (traced.cost, traced.deployed):
        problems.append("the traced and the counted round disagree on cost or deployments")
    return {
        "problems": problems,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": metrics,
    }
