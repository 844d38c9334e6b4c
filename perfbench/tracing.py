"""Span tracing from outside the program, and the per-layer numbers.

:class:`Tracer` wraps public class methods of each layer (runtime, the
algorithm registry, store, cost model, core schedule check, LP model and
the SciPy solver entry points) for as long as it is installed, and keeps
every span in memory.  A span is ``[id, name, start, end, parent id,
task id, rows]``; the task id is the task's cache key where the call is
about one task.  Nothing in ``src/`` changes: uninstalling restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.runner import BatchTask

__all__ = ["Tracer", "layer_metrics"]

#: Every algorithm the workloads run; each gets an ``algorithms.<name>.busy_s``.
ALGORITHMS = ("lpt-with-setups", "lpt-class-oblivious", "class-aware-greedy",
              "ptas-uniform", "randomized-rounding",
              "class-uniform-restrictions-2approx",
              "class-uniform-ptimes-3approx")

_ID, _NAME, _START, _END, _PARENT, _TASK, _ROWS = range(7)

#: The unwrapped key function, for task ids (never traced itself).
_cache_key = BatchTask.cache_key


def _task_of_run(args: tuple, kwargs: dict, _result: Any) -> str:
    spec, instance = args[0], args[1]
    return _cache_key(BatchTask.make(spec.name, instance, kwargs))


#: ``(module, class or "" for the module itself, attribute, span name,
#: task id of a call, row count of a result)``.  A span name may be a
#: function of the call's arguments.  Targets a refactor removed are
#: skipped and listed in ``Tracer.absent``, so their metrics read as absent.
TARGETS: Tuple[tuple, ...] = (
    ("repro.api.spec", "ScenarioSpec", "compile", "api.compile", None, None),
    ("repro.runtime.runner", "BatchTask", "cache_key", "runtime.fingerprint",
     lambda _a, _k, key: key, None),
    ("repro.runtime.registry", "AlgorithmSpec", "run",
     lambda args: f"algorithms.{args[0].name}", _task_of_run, None),
    ("repro.store.result_store", "ResultStore", "put", "store.put",
     lambda args, _k, _r: _cache_key(args[1]), None),
    ("repro.store.result_store", "ResultStore", "prefetch", "store.prefetch",
     None, len),
    ("repro.store.cost_model", "CostModel", "fit", "store.cost_model_fit",
     None, None),
    ("repro.core.schedule", "Schedule", "validate", "core.validate",
     None, None),
    ("repro.lp.model", "Model", "solve", "lp.model_solve", None, None),
    ("scipy.optimize", "", "linprog", "lp.solver", None, None),
    ("scipy.optimize", "", "milp", "lp.solver", None, None),
)


class Tracer:
    """In-memory span recorder over wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        #: Span names whose entry point no longer exists.
        self.absent: List[str] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def open(self, name: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent,
                None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: Callable[[tuple], str],
              task: Optional[Callable] = None,
              rows: Optional[Callable[[Any], int]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if task is not None:
                span[_TASK] = task(args, kwargs, result)
            if rows is not None:
                span[_ROWS] = rows(result)
            return result
        return traced

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :data:`TARGETS` that still exists."""
        self.absent = []
        for module, owner_name, attr, name, task, rows in TARGETS:
            try:
                owner = importlib.import_module(module)
                if owner_name:
                    owner = getattr(owner, owner_name)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name if isinstance(name, str) else attr)
                continue
            label = name if callable(name) else (lambda _a, n=name: n)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, label, task, rows))
            else:
                wrapped = self._wrap(raw, label, task, rows)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds
        (a span minus its direct children) and rows."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] is not None:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span[_NAME], {"calls": 0, "total_s": 0.0,
                                                 "self_s": 0.0, "rows": 0})
            duration = span[_END] - span[_START]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[span[_ID]]
            entry["rows"] += span[_ROWS] or 0
        return out

    def export(self) -> List[Dict[str, Any]]:
        """The spans as plain records (for the trace file)."""
        return [{"id": s[_ID], "name": s[_NAME], "start": s[_START],
                 "end": s[_END], "parent": s[_PARENT], "task": s[_TASK],
                 **({"rows": s[_ROWS]} if s[_ROWS] is not None else {})}
                for s in self.spans]


def layer_metrics(tracer: Tracer, *, batches: int) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    ``runtime.batch`` spans are opened by the benchmark around each
    submission; their self time is the wall time no wrapped layer
    explains.  ``api.compile_s`` is the median single compile.
    """
    totals = tracer.totals()

    def get(name: str, field: str = "total_s") -> float:
        return totals.get(name, {}).get(field, 0)

    compiles = [s[_END] - s[_START] for s in tracer.spans
                if s[_NAME] == "api.compile"]
    solver_s = get("lp.solver")
    metrics: Dict[str, float] = {
        "api.compile_s": statistics.median(compiles) if compiles else 0.0,
        "runtime.fingerprint_s": get("runtime.fingerprint"),
        "runtime.unattributed_s": get("runtime.batch", "self_s"),
        "core.validate_calls": get("core.validate", "calls"),
        "lp.solves": get("lp.solver", "calls"),
        "lp.solver_s": solver_s,
        "store.put_s": get("store.put"),
        "store.puts": get("store.put", "calls"),
        "store.prefetch_s": get("store.prefetch"),
        "store.prefetch_calls": get("store.prefetch", "calls"),
        "store.prefetch_rows": get("store.prefetch", "rows"),
        "store.cost_model_fit_s": get("store.cost_model_fit"),
        "store.cost_model_fits": get("store.cost_model_fit", "calls"),
        "queue.polls_per_batch": get("store.prefetch", "calls") / max(1, batches),
    }
    if "lp.model_solve" not in tracer.absent:
        metrics["lp.model_s"] = get("lp.model_solve") - solver_s
    for name in ALGORITHMS:
        metrics[f"algorithms.{name}.busy_s"] = get(f"algorithms.{name}")
    return metrics
