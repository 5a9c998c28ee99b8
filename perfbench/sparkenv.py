"""The one Spark configuration the benchmark measures, and Spark-side counters.

The session is built by ``repro.session.get_session`` itself, so the
benchmark measures the settings the jobs use (Arrow on, 64 shuffle
partitions, broadcast joins off, ``local[*]``). What the JVM reads only
at launch is pinned here: 2 GiB of driver heap and every scratch
directory inside the run directory. ``SPARK_MASTER`` and
``SPARK_SHUFFLE_PARTITIONS`` are cleared so an outer environment cannot
change what is measured; the effective values are read back from the
live session and recorded with every result.
"""
from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

DRIVER_MEMORY = "2g"
#: Properties recorded with every result (read back from the session).
RECORDED_CONF = (
    "spark.master",
    "spark.driver.memory",
    "spark.sql.execution.arrow.pyspark.enabled",
    "spark.sql.shuffle.partitions",
    "spark.sql.autoBroadcastJoinThreshold",
    "spark.sql.adaptive.enabled",
)


def configure(run_dir: Path) -> None:
    """Set what the JVM reads at launch; call before pyspark starts a JVM."""
    for var in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS", "PYSPARK_SUBMIT_ARGS"):
        os.environ.pop(var, None)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(run_dir / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM that builds the command line
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '{java_opts}' "
        f"--conf spark.sql.warehouse.dir={run_dir / 'warehouse'} "
        "pyspark-shell"
    )


def start_session():
    """(session, seconds to start it and run one trivial job)."""
    from repro.session import get_session

    t0 = perf_counter()
    spark = get_session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(8).count()
    return spark, perf_counter() - t0


def environment(spark) -> dict:
    """Effective Spark conf plus the host and software versions."""
    import pyspark

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "pyspark": pyspark.__version__}
    if spark is not None:
        sc = spark.sparkContext
        conf = {k: spark.conf.get(k) for k in RECORDED_CONF}
        conf["task_slots"] = sc.defaultParallelism
        env["spark_conf"] = conf
    return env


def source_identity(root: Path) -> dict:
    """The git commit when there is one, and a digest of the program sources."""
    import hashlib

    h = hashlib.sha256()
    for sub in ("src", "jobs"):
        for p in sorted((root / sub).rglob("*.py")):
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def _children(pid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == pid:
                out.append(int(d))
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this Python process plus every live descendant (the JVM)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    todo = _children(os.getpid())
    while todo:
        pid = todo.pop()
        total_kb += _hwm_kb(pid)
        todo.extend(_children(pid))
    return total_kb / 1024.0


def stop() -> None:
    """Stop Spark and wait for the JVM (and its Python daemons) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


class JobCounter:
    """Spark jobs, stages and tasks per job group, via ``StatusTracker``.

    The status store is fed asynchronously by the listener bus, so
    :meth:`barrier` runs one marker job and waits until the tracker shows
    it finished: every event posted before it has then been processed.
    """

    def __init__(self) -> None:
        self._n = 0

    @staticmethod
    def _sc():
        from pyspark import SparkContext

        return SparkContext._active_spark_context

    def set_group(self, group: str | None) -> None:
        sc = self._sc()
        if group is None:
            sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            sc.setJobGroup(group, group)

    def barrier(self, timeout_s: float = 60.0) -> None:
        from pyspark.sql import SparkSession

        self._n += 1
        group = f"perfbench-barrier-{self._n}"
        sc = self._sc()
        prev = sc.getLocalProperty("spark.jobGroup.id")
        self.set_group(group)
        SparkSession.getActiveSession().range(1).count()
        self.set_group(prev)
        st = sc.statusTracker()
        deadline = perf_counter() + timeout_s
        while perf_counter() < deadline:
            ids = st.getJobIdsForGroup(group)
            infos = [st.getJobInfo(j) for j in ids]
            if ids and all(i is not None and i.status == "SUCCEEDED" for i in infos):
                return
            sleep(0.005)
        raise TimeoutError("Spark listener bus did not drain")

    def counts(self, group: str) -> tuple[int, int, int]:
        """(jobs, stages that ran, tasks that ran) of one job group."""
        st = self._sc().statusTracker()
        jobs = st.getJobIdsForGroup(group)
        stage_ids: set[int] = set()
        for j in jobs:
            info = st.getJobInfo(j)
            if info is not None:
                stage_ids.update(info.stageIds)
        stages = tasks = 0
        for s in stage_ids:
            si = st.getStageInfo(s)
            if si is not None and si.numCompletedTasks > 0:
                stages += 1
                tasks += si.numCompletedTasks
        return len(jobs), stages, tasks


def make_progress_listener(spark):
    """A ``StreamingQueryListener`` collecting progress, registered on ``spark``."""
    from pyspark.sql.streaming import StreamingQueryListener

    class ProgressListener(StreamingQueryListener):
        def __init__(self) -> None:
            self.progress: list = []
            self._cv = threading.Condition()

        def onQueryStarted(self, event) -> None:
            pass

        def onQueryProgress(self, event) -> None:
            with self._cv:
                self.progress.append(event.progress)
                self._cv.notify_all()

        def onQueryIdle(self, event) -> None:
            pass

        def onQueryTerminated(self, event) -> None:
            pass

        def reset(self) -> None:
            with self._cv:
                self.progress = []

        def wait_for(self, n: int, timeout_s: float = 60.0) -> list:
            """Progress events once ``n`` have arrived (or at the timeout)."""
            with self._cv:
                self._cv.wait_for(lambda: len(self.progress) >= n, timeout_s)
                return list(self.progress)

    listener = ProgressListener()
    spark.streams.addListener(listener)
    return listener
