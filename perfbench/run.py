#!/usr/bin/env python3
"""Layered benchmark of the Jarvis reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see WORKLOADS.md) from the root of a source
checkout: set-up, then a measured phase with tracing off. With
``--trace 1`` a second, traced phase follows and the per-layer metrics
are reported instead of the end-to-end ones. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit, as listed in BENCHMARK.json). The
line before it records the environment, the Spark configuration and
the failures, if any. Exit code 1 means a correctness check failed; 2
means the program sources are not there.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

from common import FIGURES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload -> whether it needs a Spark session.
WORKLOADS = {
    "t2t_window_sweep": True,
    "s2s_live_stream": True,
    "control_fleet": False,
    "experiments_build": True,
}
REQUIRED = ("src/repro", "jobs/build_experiments_md.py", "EXPERIMENTS.md", "BENCHMARK.json")

#: (module, class or None, attribute, span name): the traced calls, each
#: wrapped in the namespace of the module that calls it.
TRACE_POINTS = [
    ("repro.core.executor", None, "run_partitioned", "partition_exec.run_partitioned"),
    ("repro.streaming.pushdown", None, "run_partitioned", "partition_exec.run_partitioned"),
    ("repro.experiments.fig3", None, "run_partitioned", "partition_exec.run_partitioned"),
    ("repro.core.pipeline", "Pipeline", "measure_relay_ratios", "pipeline.measure_relay_ratios"),
    ("repro.core.runtime", "JarvisRuntime", "run_epoch", "runtime.run_epoch"),
    ("repro.core.runtime", None, "classify_query", "proxy.classify_query"),
    ("repro.core.convergence_sim", None, "classify_query", "proxy.classify_query"),
    ("repro.core.runtime", None, "lp_initial_plan", "stepwise.lp_initial_plan"),
    ("repro.core.stepwise", "FineTuner", "next_p", "stepwise.next_p"),
    ("repro.core.stepwise", None, "solve_plan", "lp.solve_plan"),
    ("repro.strategies.jarvis", None, "solve_plan", "lp.solve_plan"),
    ("repro.core.executor", "SimulatedEpochExecutor", "execute", "executor.execute"),
    ("repro.core.executor", "SparkEpochExecutor", "execute", "executor.execute"),
    ("repro.experiments.specs", None, "measure_spec", "cluster.spec.measure_spec"),
] + [(f"repro.experiments.{f}", None, "run", f"experiments.{f}") for f in FIGURES]

#: (per-layer metric, span name, statistic) read from the traced phase.
SPAN_METRICS = [
    ("partition_exec.run_partitioned_s", "partition_exec.run_partitioned", "mean_s"),
    ("partition_exec.result_s", "partition_exec.result", "mean_s"),
    ("pipeline.measure_relay_ratios_s", "pipeline.measure_relay_ratios", "mean_s"),
    ("cluster.spec.measure_spec_s", "cluster.spec.measure_spec", "total_s"),
    ("runtime.run_epoch_self_us", "runtime.run_epoch", "self_us"),
    ("proxy.classify_query_us", "proxy.classify_query", "mean_us"),
    ("executor.execute_us", "executor.execute", "mean_us"),
    ("lp.solve_plan_us", "lp.solve_plan", "mean_us"),
    ("lp.solves", "lp.solve_plan", "per_epoch"),
    ("stepwise.lp_initial_plan_us", "stepwise.lp_initial_plan", "mean_us"),
    ("stepwise.next_p_us", "stepwise.next_p", "mean_us"),
    ("stepwise.next_p_calls", "stepwise.next_p", "per_epoch"),
] + [(f"experiments.{f}_s", f"experiments.{f}", "total_s") for f in FIGURES]

#: Owners of ``solve_plan`` as its callers see it (budget check).
LP_CALLERS = ("repro.core.stepwise", "repro.strategies.jarvis")


def _owner(module: str, cls: str | None):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(mod, cls, None) if cls else mod


def install_trace_points(tracer) -> None:
    for module, cls, attr, name in TRACE_POINTS:
        owner = _owner(module, cls)
        if owner is not None and attr in vars(owner):
            tracer.wrap(owner, attr, name)


def install_lp_check(ctx) -> None:
    """Count LP plans whose predicted compute exceeds the budget they were given."""
    from common import budget_violation

    def after(args, kwargs, sol):
        if budget_violation(args, kwargs, sol):
            ctx.lp_violations += 1

    for module in LP_CALLERS:
        owner = _owner(module, None)
        if owner is not None and "solve_plan" in vars(owner):
            ctx.patches.tap(owner, "solve_plan", after)


def span_stat(tracer, span: str, stat: str, epochs: int) -> float:
    dur, self_t = tracer.by_name(span)
    if len(dur) == 0:
        return 0.0
    return {
        "mean_s": float(dur.mean()),
        "total_s": float(dur.sum()),
        "mean_us": float(dur.mean()) * 1e6,
        "self_us": float(self_t.mean()) * 1e6,
        "per_epoch": len(dur) / max(epochs, 1),
    }[stat]


def end_to_end(phase, setup_s: float, rss_mb: float) -> dict[str, float]:
    from common import median, tail

    n = len(phase.epoch_s)
    return {
        "setup_s": setup_s,
        "epoch_s.p50": median(phase.epoch_s),
        "epoch_s.tail": tail(phase.epoch_s)[0],
        "epochs_per_s": n / phase.wall_s,
        "records_per_s": phase.records / phase.wall_s,
        "job_s": phase.job_s,
        "drained_bytes_per_record": phase.drained_bytes / phase.records,
        "nonstable_epoch_frac": phase.nonstable_frac,
        "peak_rss_mb": rss_mb,
    }


def per_layer(ctx, untraced, traced, tracer) -> dict[str, float]:
    from common import median

    epochs = len(traced.epoch_s)
    out = dict(traced.layer)
    for metric, span, stat in SPAN_METRICS:
        out[metric] = span_stat(tracer, span, stat, epochs)
    for layer, self_s in tracer.layer_self_s().items():
        out[f"layer.{layer}.self_s"] = self_s / max(epochs, 1)
    out["lp.budget_violations"] = float(ctx.lp_violations)
    out["trace.spans"] = len(tracer.start) / max(epochs, 1)
    out["trace.overhead_s"] = median(traced.epoch_s) - median(untraced.epoch_s)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = ROOT / ".bench_tmp" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import sparkenv
    from common import Ctx, tail

    sparkenv.configure(run_dir)
    needs_spark = WORKLOADS[args.workload]
    ctx = Ctx(root=ROOT, run_dir=run_dir, seed=args.seed, seconds=args.seconds)
    info: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **sparkenv.source_identity(ROOT)}
    try:
        wl = importlib.import_module(args.workload)
        if needs_spark:
            ctx.spark, info["session_s"] = sparkenv.start_session()
        info["environment"] = sparkenv.environment(ctx.spark)
        install_lp_check(ctx)
        state, setup_s = wl.setup(ctx)
        if needs_spark:
            setup_s += info["session_s"]
        untraced = wl.measure(ctx, state, None, None)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            install_trace_points(tracer)
            try:
                traced = wl.measure(ctx, state, tracer, sparkenv.JobCounter() if needs_spark else None)
            finally:
                tracer.patches.restore()
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz")
            info["spark_counts_per_epoch"] = traced.spark_counts
        rss_mb = sparkenv.peak_rss_mb()
    finally:
        ctx.patches.restore()
        if needs_spark:
            sparkenv.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = ctx.checks
    _, pct, n = tail(untraced.epoch_s)
    info.update(epochs=n, tail_percentile=pct, setup_s=setup_s,
                epoch_s=[round(x, 6) for x in untraced.epoch_s[:1000]],
                error_rate=checks.failed / max(checks.attempted, 1),
                failures=checks.messages)
    if args.trace:
        values = per_layer(ctx, untraced, traced, tracer)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced, setup_s, rss_mb)
        wanted = spec["end_to_end"]
    # Metrics a workload has no layer for are reported as 0 (see WORKLOADS.md).
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1, default=str)
    )
    print(json.dumps({"perfbench": info}, default=str))
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
