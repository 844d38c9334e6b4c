"""Benchmark of the repro serving stack, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-uniform --seed 1 --seconds 12 --trace 0

``--workload all`` runs the four workloads one after another, each in a
process of its own.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs a fixed amount of work with span wrappers installed
(see ``tracing.py``) and reports the per-layer metrics.  Every run checks
its results against the same tasks run in-process on the serial backend
and exits non-zero on any failure.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and seeds are explained in ``RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("sweep-uniform", "sweep-lp", "queue-batches", "replay-warm")
#: The seed used unless ``--seed`` is given, and the one kept out of tuning
#: for confirming later claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed runs go on past ``--seconds`` until they hold this many latency
#: samples (so ten lie beyond p90) and this many rounds.
MIN_SAMPLES = 100
MIN_ROUNDS = 3
#: Traced runs do a fixed amount of work, so their counts repeat exactly:
#: this many (untraced, traced) pairs of rounds or batches.
TRACE_PAIRS = {"sweep": 2, "queue": 3, "replay": 3}
IMPORT_MODULES = (("import.repro_s", "repro"),
                  ("worker.import_s", "repro.runtime.worker"),
                  ("supervisor.import_s", "repro.runtime.supervisor"))
PROBE_TIMEOUT_S = 120

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "tasks_per_s": "tasks/s",
    "task_latency_p50_s": "s",
    "task_latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_kb_per_result": "KB",
}
#: Per-layer metrics in the ``--trace 1`` result line: those measured on
#: every workload.  The rest (see ``PER_LAYER_TABLE_ONLY``) are printed and
#: written to the trace file, but not in the result line, because on some
#: workloads the layer does no work and the time is always 0.
PER_LAYER = {
    "import.repro_s": "s",
    "worker.import_s": "s",
    "supervisor.import_s": "s",
    "api.compile_s": "s",
    "runtime.fingerprint_s": "s",
    "runtime.first_result_s": "s",
    "runtime.unattributed_s": "s",
    "runtime.store_hits": "count",
    "runtime.store_puts": "count",
    "runtime.errors": "count",
    "runtime.timeouts": "count",
    "core.dual_guesses": "count",
    "core.validate_calls": "count",
    "lp.solves": "count",
    "store.puts": "count",
    "store.prefetch_s": "s",
    "store.prefetch_calls": "count",
    "store.prefetch_rows": "count",
    "store.payload_bytes_per_result": "bytes",
    "store.cost_model_fits": "count",
    "queue.polls_per_batch": "count",
    "queue.duplicate_computes": "count",
    "queue.max_attempts": "count",
    "queue.failed_rows": "count",
    "trace.tasks_per_s": "tasks/s",
    "trace.untraced_tasks_per_s": "tasks/s",
    "trace.overhead_frac": "ratio",
}
#: Besides these, ``algorithms.<name>.busy_s`` for each of
#: ``tracing.ALGORITHMS``.
PER_LAYER_TABLE_ONLY = {
    "lp.solver_s": "s",
    "lp.model_s": "s",
    "store.put_s": "s",
    "store.cost_model_fit_s": "s",
    "queue.wait_p50_s": "s",
    "queue.wait_p90_s": "s",
    "queue.compute_s": "s",
}


# ----------------------------------------------------------------------
# one submitted batch
# ----------------------------------------------------------------------
@dataclass
class Batch:
    """What one submission returned, and when each result arrived.

    ``seal()`` turns the results into per-task digests and drops tasks and
    results, so a run holds only one round's instances at a time.
    """

    tasks: List[Any]
    results: List[Any]
    latencies: List[float]
    wall: float
    stats: Dict[str, int]
    store_kb: Optional[float] = None
    payload_bytes_per_result: Optional[float] = None
    #: ``(cache key, result digest or None for a failure sentinel)``.
    digests: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    #: Σ ``meta["search_iterations"]``: dual-search guesses of the batch.
    dual_guesses: int = 0
    failed: int = 0

    @property
    def first(self) -> float:
        return min(self.latencies)

    @property
    def tasks_per_s(self) -> float:
        return len(self.latencies) / self.wall

    def seal(self) -> "Batch":
        self.digests = [(task.cache_key(), result_digest(task, result))
                        for task, result in zip(self.tasks, self.results)]
        self.dual_guesses = sum(int(r.meta.get("search_iterations", 0))
                                for r in self.results)
        self.tasks, self.results = [], []
        return self


def submit(runner: Any, tasks: List[Any], tracer: Any = None) -> Batch:
    """Submit ``tasks`` as one batch and time each result's arrival."""
    results: List[Any] = [None] * len(tasks)
    latencies = [0.0] * len(tasks)
    before = dict(runner.stats)
    gc.collect()  # every batch starts from the same collector state
    span = tracer.open("runtime.batch") if tracer is not None else None
    start = time.perf_counter()
    for idx, result in runner.run_iter(tasks):
        latencies[idx] = time.perf_counter() - start
        results[idx] = result
    wall = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
    stats = {key: runner.stats[key] - before.get(key, 0) for key in runner.stats}
    return Batch(list(tasks), results, latencies, wall, stats)


def store_kb_per_result(path: Path) -> float:
    """Store bytes after close (WAL checkpointed) per stored result."""
    size = sum(p.stat().st_size for p in (path, Path(f"{path}-wal"))
               if p.exists())
    conn = sqlite3.connect(str(path))
    try:
        entries = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
    finally:
        conn.close()
    return size / 1024.0 / max(1, entries)


def payload_bytes_per_result(runner: Any) -> float:
    stats = runner.store.stats()
    return stats["total_payload_bytes"] / max(1, stats["entries"])


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def result_digest(task: Any, result: Any) -> Optional[str]:
    """Digest of (algorithm, kwargs, makespan, assignment); ``None`` for an
    error or timeout sentinel."""
    import numpy as np

    if result is None or result.meta.get("error") or result.meta.get("timeout"):
        return None
    h = hashlib.sha256(repr((task.algorithm, task.kwargs,
                             float(result.makespan))).encode())
    h.update(np.asarray(result.schedule.assignment, dtype=np.int64).tobytes())
    return h.hexdigest()


class Checker:
    """Serial in-process results are the reference every run is held to.

    A reference result must be no failure sentinel, pass
    ``Schedule.validate()`` and have a makespan that recomputes.  A
    measured result fails unless its digest equals its reference's.
    """

    def __init__(self) -> None:
        #: ``[cache key, digest or None]`` in reference task order.
        self.reference: List[List[Any]] = []
        self.problems: List[str] = []

    def add_reference(self, tasks: List[Any], results: List[Any]) -> None:
        for task, result in zip(tasks, results):
            digest = result_digest(task, result)
            problem = None
            if digest is None:
                problem = "failure sentinel"
            elif invalid := result.schedule.validate():
                problem = f"invalid schedule: {invalid[0]}"
            elif not math.isclose(result.schedule.makespan(), result.makespan,
                                  rel_tol=1e-9):
                problem = "makespan does not recompute"
            if problem is not None:
                self.problems.append(f"{task.algorithm}: {problem}")
                digest = None
            self.reference.append([task.cache_key(), digest])

    def verify(self, batch: Batch) -> None:
        """Count the sealed batch's failures."""
        expected = dict(self.reference)
        batch.failed = sum(got is None or expected.get(key) != got
                           for key, got in batch.digests)

    def serial_digest(self) -> str:
        return _digest_of(digest for _key, digest in self.reference)


def run_digest(batches: List[Batch]) -> str:
    """The workload digest of ``batches``, in submission order."""
    return _digest_of(digest for b in batches for _key, digest in b.digests)


def _digest_of(digests: Any) -> str:
    h = hashlib.sha256()
    for digest in digests:
        h.update(str(digest).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# helpers around the program
# ----------------------------------------------------------------------
def tracing_on(tracer: Any) -> Any:
    """The tracer as a context manager, or a no-op without one."""
    return tracer if tracer is not None else contextlib.nullcontext()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def reset_pool() -> None:
    from repro.runtime.pool import reset_runner_pool

    reset_runner_pool()


def fresh_store(tmp: Path, label: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=tmp)) / "store.sqlite"


def drop_store(path: Path) -> None:
    shutil.rmtree(path.parent, ignore_errors=True)


def _probe(args: List[str]) -> str:
    """Run ``run.py --probe ...`` in a fresh interpreter; its first line."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             "--probe", *args],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0:
            raise RuntimeError(f"probe {args} exited rc={proc.returncode}")
    return line


def measure_setup(workload: str, seed: int, store: Path) -> float:
    """Fresh interpreter to ready-to-submit, seen from outside."""
    start = time.perf_counter()
    line = _probe(["setup", "--workload", workload, "--seed", str(seed),
                   "--store", str(store)])
    if line != "ready":
        raise RuntimeError(f"setup probe said {line!r}")
    return time.perf_counter() - start


def measure_imports(repeats: int) -> Dict[str, float]:
    samples: Dict[str, List[float]] = {name: [] for name, _ in IMPORT_MODULES}
    for _ in range(repeats):
        for name, module in IMPORT_MODULES:
            samples[name].append(float(_probe(["import", "--module", module])))
    return {name: statistics.median(values) for name, values in samples.items()}


def percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# the rounds each workload kind is made of
# ----------------------------------------------------------------------
class Bench:
    """One benchmark process: a workload, a seed and a scratch directory."""

    def __init__(self, workload: Any, seed: int, tmp: Path) -> None:
        self.wl = workload
        self.seed = seed
        self.tmp = tmp
        self.nproc = nproc()
        self.checker = Checker()
        self.store: Optional[Path] = None  # the filled replay store
        self.replay_tasks = b""  # the second compile, pickled

    def cold_round(self, tracer: Any = None, **session: Any) -> Batch:
        """Fresh compile, fresh store, fresh runner, every task once."""
        store = fresh_store(self.tmp, "round")
        with tracing_on(tracer):
            tasks = self.wl.compile(self.seed)
            runner = self.wl.session(str(store), self.nproc, **session).runner()
            batch = submit(runner, tasks, tracer)
        batch.payload_bytes_per_result = payload_bytes_per_result(runner)
        reset_pool()
        batch.store_kb = store_kb_per_result(store)
        drop_store(store)
        return batch

    def fill(self, tracer: Any = None) -> None:
        """Replay preparation.  A child process fills a store serially, so
        neither its compute nor its memory counts, and its results are the
        reference.  Then this process compiles the tasks a second time."""
        self.store = fresh_store(self.tmp, "replay")
        reply = json.loads(_probe(["fill", "--workload", self.wl.name,
                                   "--seed", str(self.seed),
                                   "--store", str(self.store)]))
        self.checker.reference = reply["reference"]
        self.checker.problems = reply["problems"]
        with tracing_on(tracer):
            self.replay_tasks = pickle.dumps(self.wl.compile(self.seed))

    def warm_round(self, tracer: Any = None) -> Batch:
        """A fresh copy of the second compile on a fresh runner: no
        fingerprint is memoized and every task is a store hit.  Copying
        instead of compiling again keeps rounds short, so a run holds
        enough of them for a steady p90."""
        tasks = pickle.loads(self.replay_tasks)
        with tracing_on(tracer):
            runner = self.wl.session(str(self.store), self.nproc).runner()
            batch = submit(runner, tasks, tracer)
        batch.payload_bytes_per_result = payload_bytes_per_result(runner)
        reset_pool()
        return batch

    def serial_reference(self, tasks: List[Any]) -> None:
        from repro.api import Session

        batch = submit(Session(backend="serial").runner(), tasks)
        reset_pool()
        self.checker.add_reference(batch.tasks, batch.results)


def _enough(rounds: List[Batch], deadline: float) -> bool:
    samples = sum(len(b.latencies) for b in rounds)
    return (time.perf_counter() >= deadline and samples >= MIN_SAMPLES
            and len(rounds) >= MIN_ROUNDS)


def _unit_of(kind: str) -> str:
    return "batches" if kind == "queue" else "rounds"


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def run_timed(bench: Bench, seconds: float) -> Dict[str, Any]:
    wl, kind = bench.wl, bench.wl.kind
    if kind == "replay":
        bench.fill()
    setups = []
    for _ in range(SETUP_REPEATS):
        store = bench.store or fresh_store(bench.tmp, "setup")
        setups.append(measure_setup(wl.name, bench.seed, store))
        if store != bench.store:
            drop_store(store)

    rounds: List[Batch] = []
    deadline = time.perf_counter() + seconds
    if kind == "sweep":
        while not _enough(rounds, deadline):
            rounds.append(bench.cold_round().seal())
        store_kb = statistics.median(b.store_kb for b in rounds)
    elif kind == "replay":
        while not _enough(rounds, deadline):
            rounds.append(bench.warm_round().seal())
        store_kb = store_kb_per_result(bench.store)
    else:  # queue: one client session, back-to-back small batches
        store = fresh_store(bench.tmp, "queue")
        batches = wl.batches(wl.compile(bench.seed))
        runner = wl.session(str(store), bench.nproc).runner()
        for tasks in batches:
            if _enough(rounds, deadline):
                break
            rounds.append(submit(runner, tasks).seal())
        reset_pool()
        store_kb = store_kb_per_result(store)
    # Memory is read before the serial reference runs in this process.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if kind == "sweep":
        bench.serial_reference(wl.compile(bench.seed))
    elif kind == "queue":
        bench.serial_reference([t for b in batches[:len(rounds)] for t in b])
    for batch in rounds:
        bench.checker.verify(batch)

    latencies = [lat for b in rounds for lat in b.latencies]
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    metrics = {
        "tasks_per_s": statistics.median(b.tasks_per_s for b in rounds),
        "task_latency_p50_s": percentile(latencies, 0.5),
        "task_latency_p90_s": percentile(latencies, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "store_kb_per_result": store_kb,
    }
    notes = {
        "tasks_per_s": f"median of {len(rounds)} {_unit_of(kind)}",
        "task_latency_p50_s": f"n={len(latencies)}",
        "task_latency_p90_s": f"n={len(latencies)}, {beyond} beyond",
        "setup_s": f"median of {len(setups)} fresh interpreters",
    }
    # The workload digest covers the tasks the reference ran.
    digested = rounds if kind == "queue" else rounds[:1]
    return {"rounds": rounds, "digested": digested, "metrics": metrics,
            "notes": notes, "units": END_TO_END}


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def run_traced(bench: Bench) -> Dict[str, Any]:
    from tracing import ALGORITHMS, Tracer, layer_metrics

    wl, kind = bench.wl, bench.wl.kind
    tracer = Tracer()
    metrics: Dict[str, float] = measure_imports(repeats=3)
    untraced: List[Batch] = []
    traced: List[Batch] = []
    queue_keys: List[str] = []
    if kind == "sweep":
        # Serial backend, so every algorithm call happens in this process;
        # the first untraced round is the reference.
        for pair in range(TRACE_PAIRS[kind]):
            batch = bench.cold_round(backend="serial")
            if pair == 0:
                bench.checker.add_reference(batch.tasks, batch.results)
            untraced.append(batch.seal())
            traced.append(bench.cold_round(tracer, backend="serial").seal())
        digested = traced[:1]
    elif kind == "replay":
        bench.fill(tracer)
        for _ in range(TRACE_PAIRS[kind]):
            untraced.append(bench.warm_round().seal())
            traced.append(bench.warm_round(tracer).seal())
        digested = traced[:1]
    else:
        store = fresh_store(bench.tmp, "queue")
        with tracing_on(tracer):
            batches = wl.batches(wl.compile(bench.seed))
        runner = wl.session(str(store), bench.nproc).runner()
        digested = []
        for pair in range(TRACE_PAIRS[kind]):
            untraced.append(submit(runner, batches[2 * pair]).seal())
            with tracing_on(tracer):
                batch = submit(runner, batches[2 * pair + 1], tracer)
            batch.payload_bytes_per_result = payload_bytes_per_result(runner)
            traced.append(batch.seal())
            digested += [untraced[-1], traced[-1]]
        reset_pool()
        bench.serial_reference([t for b in batches[:len(digested)] for t in b])
        queue_keys = [key for key, _ in bench.checker.reference]
        metrics.update(queue_metrics(store, queue_keys))
        drop_store(store)
    for batch in untraced + traced:
        bench.checker.verify(batch)

    metrics.update(layer_metrics(tracer, batches=len(traced)))
    for stat in ("store_hits", "store_puts", "errors", "timeouts"):
        metrics[f"runtime.{stat}"] = sum(b.stats.get(stat, 0) for b in traced)
    metrics["runtime.first_result_s"] = statistics.median(b.first for b in traced)
    metrics["core.dual_guesses"] = sum(b.dual_guesses for b in traced)
    metrics["store.payload_bytes_per_result"] = statistics.median(
        b.payload_bytes_per_result for b in traced)
    for name in ("queue.duplicate_computes", "queue.max_attempts",
                 "queue.failed_rows"):
        metrics.setdefault(name, 0)
    traced_tps = statistics.median(b.tasks_per_s for b in traced)
    untraced_tps = statistics.median(b.tasks_per_s for b in untraced)
    metrics["trace.tasks_per_s"] = traced_tps
    metrics["trace.untraced_tasks_per_s"] = untraced_tps
    metrics["trace.overhead_frac"] = 1.0 - traced_tps / untraced_tps

    unit = _unit_of(kind)
    traced_wall = sum(b.wall for b in traced)
    notes = {
        "runtime.first_result_s": f"median of {len(traced)} traced {unit}",
        "runtime.unattributed_s": f"{metrics['runtime.unattributed_s'] / traced_wall:.1%} "
                                  f"of {traced_wall:.3g} s traced wall",
        "trace.tasks_per_s": f"median of {len(traced)} traced vs "
                             f"{len(untraced)} untraced {unit}",
    }
    if queue_keys:
        notes["queue.wait_p50_s"] = notes["queue.wait_p90_s"] = f"n={len(queue_keys)}"
    return {"rounds": untraced + traced, "digested": digested,
            "metrics": metrics, "notes": notes,
            "units": {**PER_LAYER, **PER_LAYER_TABLE_ONLY,
                      **{f"algorithms.{name}.busy_s": "s"
                         for name in ALGORITHMS}},
            "layers": tracer.totals(), "spans": tracer.export(),
            "absent": tracer.absent}


def queue_metrics(store: Path, keys: List[str]) -> Dict[str, float]:
    """Queue-side numbers read back from the store file after the run."""
    placeholders = ",".join("?" * len(keys))
    conn = sqlite3.connect(str(store))
    try:
        rows = conn.execute(
            "SELECT q.enqueued_at, r.created_at, r.wall_seconds,"
            " q.compute_count, q.attempts, q.status"
            " FROM task_queue q LEFT JOIN results r ON r.key = q.key"
            f" WHERE q.key IN ({placeholders})", keys).fetchall()
    finally:
        conn.close()
    waits = [created - enqueued - wall
             for enqueued, created, wall, *_ in rows if created is not None]
    return {
        "queue.wait_p50_s": percentile(waits, 0.5),
        "queue.wait_p90_s": percentile(waits, 0.9),
        "queue.compute_s": sum(row[2] or 0.0 for row in rows),
        "queue.duplicate_computes": sum(max(0, row[3] - 1) for row in rows),
        "queue.max_attempts": max(row[4] for row in rows),
        "queue.failed_rows": sum(row[5] == "failed" for row in rows),
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def isolate_environment(tmp: Path) -> None:
    """No ``REPRO_*`` knob leaks in; children find ``src/``; temp files
    stay inside the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def probe_main(args: argparse.Namespace) -> int:
    """Child side of the fresh-interpreter measurements and of the replay
    preparation."""
    if args.probe == "import":
        start = time.perf_counter()
        importlib.import_module(args.module)
        print(repr(time.perf_counter() - start), flush=True)
        return 0
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tasks = wl.compile(args.seed)
    if args.probe == "setup":
        wl.session(args.store, nproc()).runner()
        print("ready", flush=True)
    else:  # fill
        runner = wl.session(args.store, nproc(), backend="serial").runner()
        batch = submit(runner, tasks)
        checker = Checker()
        checker.add_reference(batch.tasks, batch.results)
        print(json.dumps({"reference": checker.reference,
                          "problems": checker.problems}), flush=True)
    reset_pool()
    return 0


def stamp() -> Dict[str, Any]:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc()}


def report(args: argparse.Namespace, outcome: Dict[str, Any],
           checker: Checker) -> Dict[str, Any]:
    """Print the human-readable table; return the result line."""
    rounds = outcome["rounds"]
    attempted = sum(len(b.latencies) for b in rounds)
    failed = sum(b.failed for b in rounds)
    digest = run_digest(outcome["digested"])
    digests_match = digest == checker.serial_digest()
    correct = failed == 0 and not checker.problems and digests_match
    stamp_line = " ".join(f"{k}={v}" for k, v in stamp().items())
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} {stamp_line}")
    metrics, units, notes = outcome["metrics"], outcome["units"], outcome["notes"]
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit:<8} {notes.get(name, '')}")
    print(f"  {'failed_frac':<42} {failed / max(1, attempted):>14.6g} "
          f"{'ratio':<8} {failed}/{attempted} tasks")
    print(f"  digest {digest} serial "
          f"{checker.serial_digest()} "
          f"{'match' if digests_match else 'MISMATCH'}")
    for problem in checker.problems[:5]:
        print(f"  reference problem: {problem}")
    keep = PER_LAYER if args.trace else END_TO_END
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in keep.items()}}


def write_trace(args: argparse.Namespace, outcome: Dict[str, Any]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, **stamp(),
        "metrics": outcome["metrics"], "absent": outcome["absent"],
        "layers": outcome["layers"], "spans": outcome["spans"]}))
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        help="the workload to run; 'all' runs each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for confirming "
                             f"claims)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long a timed run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--probe", choices=("setup", "import", "fill"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--module", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    return parser


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in a fresh process of its own, one after another,
    and merge their result lines (metric names get a workload prefix)."""
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                              "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S * 3)
        *table, last = proc.stdout.splitlines() or ["{}"]
        print("\n".join(table), flush=True)
        line = json.loads(last)
        merged["correct"] &= proc.returncode == 0 and bool(line.get("correct"))
        merged["attempted"] += line.get("attempted", 0)
        merged["failed"] += line.get("failed", 0)
        for metric, value in line.get("metrics", {}).items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe_main(args)
    if args.workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    isolate_environment(tmp)
    try:
        from workloads import WORKLOADS

        bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
        reset_pool()
        outcome = (run_traced(bench) if args.trace
                   else run_timed(bench, args.seconds))
        line = report(args, outcome, bench.checker)
        if args.trace:
            print(f"  spans written to {write_trace(args, outcome)}")
    finally:
        reset_pool()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            SCRATCH.rmdir()
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
