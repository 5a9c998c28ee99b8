"""experiments_build: the EXPERIMENTS.md batch job, byte-compared.

Runs ``main`` of ``jobs/build_experiments_md.py`` with a scratch output
path and requires the output to equal the committed EXPERIMENTS.md byte
for byte. The job's input is the published configuration: the seed is
recorded, not applied. One build per phase; its "epochs" are the seven
``repro.experiments.*.run`` calls. Records and drained bytes are those
of the partitioned Spark runs the build makes (T-3), and the non-stable
share is over every runtime epoch the build simulates (T-8).
"""
from __future__ import annotations

import functools
import importlib
import runpy
import sys
from dataclasses import dataclass, field
from time import perf_counter

from common import FIGURES, Phase, spark_layer

JOB = "jobs/build_experiments_md.py"


@dataclass
class State:
    main: object
    expected: bytes
    experiment_s: list = field(default_factory=list)
    records: float = 0.0
    drained_bytes: float = 0.0
    runtime_epochs: int = 0
    nonstable: int = 0
    profiles: int = 0
    builds: int = 0


def setup(ctx):
    """Load the job and the committed output; install the build's counters."""
    import repro.core.runtime as runtime_mod
    import repro.experiments.fig3 as fig3_mod
    from repro.core import costmodel as cm
    from repro.core.partition_exec import drained_bytes
    from repro.core.proxy import QueryState

    t0 = perf_counter()
    job = runpy.run_path(str(ctx.root / JOB), run_name="perfbench_job")
    st = State(main=job["main"], expected=(ctx.root / "EXPERIMENTS.md").read_bytes())

    def on_run(args, kwargs, run):
        st.records += run.taken_counts[0] + run.drained_counts[0]
        pipeline = args[1] if len(args) > 1 else kwargs["pipeline"]
        st.drained_bytes += drained_bytes(run, pipeline, drain_overhead=cm.DRAIN_OVERHEAD)

    def on_epoch(args, kwargs, rep):
        st.runtime_epochs += 1
        st.nonstable += rep.state is not QueryState.STABLE
        st.profiles += rep.phase.value == "profile"

    ctx.patches.tap(fig3_mod, "run_partitioned", on_run)
    ctx.patches.tap(runtime_mod.JarvisRuntime, "run_epoch", on_epoch)
    for fig in FIGURES:
        mod = importlib.import_module(f"repro.experiments.{fig}")
        ctx.patches.replace(mod, "run", _timed(st, vars(mod)["run"]))
    return st, perf_counter() - t0


def _timed(st: State, run):
    @functools.wraps(run)
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return run(*args, **kwargs)
        finally:
            st.experiment_s.append(perf_counter() - t0)

    return timed


def _group_experiments(tracer, jobs, counts: list) -> None:
    """Give each experiment's Spark jobs a job group, read after it returns.

    Read per experiment: the job's ``main`` stops the session at the end.
    """
    for i, fig in enumerate(FIGURES):
        mod = importlib.import_module(f"repro.experiments.{fig}")
        inner = vars(mod)["run"]

        def grouped(*args, _inner=inner, _i=i, **kwargs):
            group = f"experiments-{FIGURES[_i]}"
            tracer.epoch = _i
            jobs.set_group(group)
            try:
                return _inner(*args, **kwargs)
            finally:
                jobs.set_group(None)
                jobs.barrier()
                counts.append(jobs.counts(group))

        tracer.patches.replace(mod, "run", grouped)


def measure(ctx, st: State, tracer, jobs) -> Phase:
    st.experiment_s.clear()
    st.records = st.drained_bytes = 0.0
    st.runtime_epochs = st.nonstable = st.profiles = 0
    st.builds += 1
    counts: list = []
    if jobs is not None:
        _group_experiments(tracer, jobs, counts)
    out = ctx.run_dir / f"EXPERIMENTS-{st.builds}.md"
    lp_violations = ctx.lp_violations
    argv = sys.argv
    sys.argv = [JOB, str(out)]
    t0 = perf_counter()
    try:
        st.main()
    finally:
        sys.argv = argv
    job_s = perf_counter() - t0
    ctx.checks.unit(
        (out.read_bytes() == st.expected, "EXPERIMENTS.md does not regenerate byte-identical"),
        (ctx.lp_violations == lp_violations, "an LP plan of the build is above its compute budget"),
        (len(st.experiment_s) == len(FIGURES), f"{len(st.experiment_s)} experiments ran"),
    )
    layer = spark_layer(counts)
    n = max(st.runtime_epochs, 1)
    layer["runtime.profiles"] = st.profiles / n
    return Phase(
        epoch_s=list(st.experiment_s), wall_s=job_s, job_s=job_s, records=st.records,
        drained_bytes=st.drained_bytes, nonstable_frac=st.nonstable / n, layer=layer,
        spark_counts=counts,
    )
