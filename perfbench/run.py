"""Control-plane benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats rounds of the workload, untraced -- as many as
take about ``--seconds`` on the calibration host, at least
:data:`MIN_ROUNDS` -- and prints the end-to-end metrics.  ``--trace 1``
runs an untraced round, a traced round (per-layer spans and op counts),
another untraced round and a round under an interpreter call counter,
and prints the per-layer metrics (see ``tracing.py``).  Either way the
output checks run on every round, and a failed check makes ``correct``
false.  The last line of standard output is the result object; the exit
code is 0 whenever a result was printed.

The program under test is imported from ``src/`` of the checkout; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 3
# Time of one ``workloads.reference_work()`` on the host the benchmark
# was calibrated on (2 vCPUs, see README.md), at its fast speed.
REFERENCE_S = 50e-6
# When that host slows down, the control plane's timings slow by the
# reference's slowdown to about this power.  Fitted over 65 runs of the
# three workloads, across host speeds 2x apart, the power was 0.9 to 1.3
# (p50s 1.2-1.3, p90s and busy time 1.05-1.1, fleet_armed's tick p90
# 0.9); 1.1 sits in the middle.  It drifts with the host's load: single
# sets of ten runs gave 0.6 to 1.8.
ELASTICITY = 1.1


def _host_scale(reference_s) -> float:
    """Factor that turns times measured alongside the reference timings
    ``reference_s`` into times on the calibration host."""
    return (REFERENCE_S / statistics.fmean(reference_s)) ** ELASTICITY


def _percentile(values, q: int) -> float:
    """The ``q``-th percentile, as ``statistics.quantiles`` cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run_untraced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    from perfbench import workloads

    # A fixed number of rounds for a given --seconds, sized so that they
    # take about that long on the calibration host.  A slower program
    # runs longer rather than fewer rounds.
    count = max(MIN_ROUNDS, round(seconds / workloads.ROUND_S[name]))
    rounds, scales = [], []
    for _ in range(count):
        probe = workloads.Probe()
        rounds.append(workloads.run(name, seed, probe, workdir))
        # The host is shared, and its speed moves by up to 2x for seconds
        # at a time; thread CPU time moves with it.  The reference work,
        # timed every few tens of milliseconds between calls, says how
        # fast the host ran during the round, and every time the round
        # measured is scaled to the calibration host's speed.  The
        # program's code does not run in the reference work, so a change
        # to the program moves scaled times as it moves raw ones.
        scales.append(_host_scale(probe.reference_s))
    setups = [r.setup_s * k for r, k in zip(rounds, scales)]
    while len(setups) < workloads.MIN_SETUPS:
        probe = workloads.Probe()
        elapsed = workloads.time_setup(name, seed, workdir, probe)
        setups.append(elapsed * _host_scale(probe.reference_s))

    def pooled(attr):
        # Percentiles are taken over the scaled samples of every round.
        return [v * k for r, k in zip(rounds, scales) for v in getattr(r, attr)]

    plan, deploy, ticks = pooled("plan_ms"), pooled("deploy_ms"), pooled("tick_ms")
    busy_s = [sum(r.call_ms) / 1e3 * k for r, k in zip(rounds, scales)]
    first = rounds[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "deploy_ms_p50": _percentile(deploy, 50),
        "deploy_ms_p90": _percentile(deploy, 90),
        "plan_ms_p50": _percentile(plan, 50),
        "plan_ms_p90": _percentile(plan, 90),
        "tick_ms_p90": _percentile(ticks, 90),
        "deploys_per_s": first.deployed / statistics.median(busy_s),
        "comm_cost_ratio": first.comm_cost_ratio,
        "served_frac": 1.0 - first.failed / first.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    problems = [p for r in rounds for p in r.problems]
    for r in rounds[1:]:
        if (r.cost, r.attempted, r.failed, r.deployed) != (
            first.cost, first.attempted, first.failed, first.deployed,
        ):
            problems.append("rounds of one seed disagree on cost or counts")
    return {
        "problems": problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
        "samples": {
            "rounds": len(rounds), "plan": len(plan), "deploy": len(deploy),
            "ticks": len(ticks), "host_scale": [round(k, 3) for k in scales],
            "round_busy_s": [round(b, 3) for b in busy_s],
            "setup_s": [round(v, 3) for v in setups],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalog, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_state"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            from perfbench import tracing

            result = tracing.run_traced(
                args.workload, args.seed, workdir, ROOT / ".bench_out"
            )
        else:
            result = _run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "samples": result.get("samples", {})}), file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set and dict iteration order; fix it so the
        # interpreter call counts repeat exactly from run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
