"""The :class:`Session` facade: one front door over the serving stack.

Four PRs grew a registry, a batch runner with pluggable backends, a
persistent store with a fitted cost model, a distributed queue and an
autoscaling supervisor — and configuring them meant scattering kwargs
over ``BatchRunner(...)`` calls and ``REPRO_*`` environment variables.
:class:`SessionConfig` collapses that into one resolved object
(**kwargs > environment > defaults**) and is the only reader of the
``REPRO_*`` variables: everything below it (the runner pool, the runner,
the backends) takes resolved values as plain arguments.  :class:`Session`
executes declarative :class:`~repro.api.spec.ScenarioSpec` sweeps
through it:

>>> from repro.api import Session, load_scenario
>>> session = Session()                           # env/defaults
>>> run = session.run(load_scenario("scenarios/epsilon_ladder.toml"))
>>> print(run.table().render())                   # doctest: +SKIP

Sessions resolve runners through the canonical keyed pool
(:func:`repro.runtime.get_runner`) — two sessions on the same
``(store, backend)`` key share one runner, its cache, and its store
handle — and hand out dedicated runners (:meth:`Session.build_runner`)
for workloads whose measurement would be contaminated by sharing
(timing experiments, scenarios carrying their own budget policy).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.algorithms.base import AlgorithmResult
from repro.analysis.tables import ResultTable
from repro.api.spec import CompiledScenario, ScenarioSpec, TaskInfo, _SIZE_KEYS
from repro.runtime.runner import BatchRunner

__all__ = ["SessionConfig", "Session", "ScenarioRun"]


@dataclass(frozen=True)
class SessionConfig:
    """Every knob of the serving stack, resolved once.

    Attributes
    ----------
    store_path:
        Persistent :class:`~repro.store.ResultStore` file shared by the
        session's runners (``REPRO_RESULT_STORE``); ``None`` keeps
        results in-memory only.
    backend:
        Execution backend name (``"serial"`` / ``"pool"`` / ``"queue"``;
        ``REPRO_BACKEND``); ``None`` picks a process pool iff
        ``max_workers > 1``, in-process execution otherwise.
    autoscale:
        Queue-backend worker fleet ceiling (``REPRO_AUTOSCALE``); ``0``
        disables autoscaling.  Only meaningful with ``backend="queue"``.
    max_workers / timeout_s / cache:
        Forwarded to :class:`BatchRunner` construction.
    backend_options:
        Extra backend constructor kwargs (e.g. chaos/testing knobs such
        as ``{"stall_timeout_s": 30.0}`` or a queue ``lease_s``).
    """

    store_path: Optional[str] = None
    backend: Optional[str] = None
    autoscale: int = 0
    max_workers: Optional[int] = None
    timeout_s: Optional[float] = None
    cache: bool = True
    backend_options: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def resolve(cls, **overrides: Any) -> "SessionConfig":
        """Build a config with **kwargs > environment > defaults**.

        Recognised environment variables: ``REPRO_RESULT_STORE``,
        ``REPRO_BACKEND``, ``REPRO_AUTOSCALE`` (an integer).  Unknown
        keyword names raise (a typo must not silently fall back to a
        default).
        """
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown session option(s) {sorted(unknown)}; "
                f"known: {sorted(known)}")
        values: Dict[str, Any] = dict(overrides)
        if "store_path" not in values:
            values["store_path"] = os.environ.get("REPRO_RESULT_STORE") or None
        elif values["store_path"] is not None:
            values["store_path"] = str(values["store_path"])
        if "backend" not in values:
            values["backend"] = os.environ.get("REPRO_BACKEND") or None
        if "autoscale" not in values:
            raw = os.environ.get("REPRO_AUTOSCALE", "").strip()
            try:
                values["autoscale"] = int(raw) if raw else 0
            except ValueError:
                raise ValueError(
                    f"REPRO_AUTOSCALE must be an integer worker count, "
                    f"got {raw!r}") from None
        return cls(**values)

    def runner_kwargs(self) -> Dict[str, Any]:
        """The :class:`BatchRunner` constructor kwargs this config implies
        (store and backend aside)."""
        kwargs: Dict[str, Any] = dict(
            max_workers=self.max_workers, timeout=self.timeout_s,
            cache=self.cache)
        options = dict(self.backend_options)
        if self.backend == "queue":
            options.setdefault("autoscale", self.autoscale)
        if options:
            kwargs["backend_options"] = options
        return kwargs


class Session:
    """Facade over registry, runner pool, store, queue and supervisor.

    ``Session()`` resolves its config from the environment;
    ``Session(store_path=..., backend=...)`` overrides individual knobs;
    ``Session(config)`` adopts a ready :class:`SessionConfig` (with
    further keyword overrides applied on top).
    """

    def __init__(self, config: Optional[SessionConfig] = None,
                 **overrides: Any) -> None:
        if config is None:
            config = SessionConfig.resolve(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config

    # ------------------------------------------------------------------
    # runners
    # ------------------------------------------------------------------
    def runner(self) -> BatchRunner:
        """The session's shared runner, from the canonical keyed pool.

        Two sessions configured for the same ``(store, backend)`` key get
        the *same* runner — shared cache, shared store handle, shared
        cost model.  The config's runner kwargs apply only when this call
        is the one that constructs the pool entry.
        """
        from repro.runtime.pool import get_runner

        return get_runner(self.config.store_path, backend=self.config.backend,
                          **self.config.runner_kwargs())

    def build_runner(self, **overrides: Any) -> BatchRunner:
        """A dedicated (non-pooled) runner for this session's config.

        For workloads that must not share state: timing measurements
        (their own worker counts, caches off, as in E9) and scenario specs
        carrying a budget policy.  Keyword overrides win over the config;
        pass ``store=None`` explicitly to drop the session store,
        ``store=path`` to substitute one.
        """
        kwargs = dict(self.config.runner_kwargs(),
                      backend=self.config.backend,
                      store=self.config.store_path)
        kwargs.update(overrides)
        return BatchRunner(**kwargs)

    def map(self, func: Any, items: Sequence[Any]) -> List[Any]:
        """Chunked (possibly parallel) map on the session's shared runner."""
        return self.runner().map(func, items)

    # ------------------------------------------------------------------
    # scenario execution
    # ------------------------------------------------------------------
    def _runner_for(self, spec: ScenarioSpec) -> BatchRunner:
        if spec.budget is None:
            return self.runner()
        # A budget policy is scenario-local latency policy: give the spec
        # its own runner so the shared pool entry is not reconfigured —
        # but on the *pooled store handle*, so repeated budgeted runs in a
        # long-lived process share one SQLite connection (and one put
        # counter) instead of leaking a fresh handle per run.
        overrides: Dict[str, Any] = {}
        if self.config.store_path is not None:
            from repro.runtime.pool import shared_store

            overrides["store"] = shared_store(self.config.store_path)
        if spec.budget.timeout_s is not None:
            overrides["timeout"] = spec.budget.timeout_s
        if self.config.backend == "queue":
            options = dict(self.config.runner_kwargs()["backend_options"])
            if spec.budget.budget_factor is not None:
                options["budget_factor"] = spec.budget.budget_factor
            if spec.budget.min_budget_s is not None:
                options["min_budget_s"] = spec.budget.min_budget_s
            overrides["backend_options"] = options
        return self.build_runner(**overrides)

    def run(self, spec: ScenarioSpec, scale: str = "quick", *,
            check: bool = True) -> "ScenarioRun":
        """Execute a scenario and return its :class:`ScenarioRun`.

        ``check=True`` (default) raises on any failed/timed-out task —
        a declarative sweep serving ``inf`` makespans is a bug surfaced,
        not a row rendered.  Portfolio-mode specs run the best-per-
        instance competition instead of the full grid table.
        """
        if spec.mode == "portfolio":
            return self._run_portfolio(spec, scale)
        compiled = spec.compile(scale)
        runner = self._runner_for(spec)
        batch = runner.run_tasks(compiled.tasks)
        if check:
            batch.raise_for_failures()
        return ScenarioRun(compiled=compiled, results=list(batch.results),
                           wall_seconds=batch.wall_seconds,
                           references=self._references(spec, compiled))

    def stream(self, spec: ScenarioSpec, scale: str = "quick"
               ) -> Iterator[Tuple[TaskInfo, AlgorithmResult]]:
        """Yield ``(task_info, result)`` pairs as results become available.

        Delivery order is the runner's streaming order (warm cache/store
        hits first, then fresh results as they complete), not compile
        order; ``task_info.point_index`` / ``.algorithm`` carry the
        alignment.  Failure sentinels are yielded, not raised — a serving
        loop decides per result.
        """
        compiled = spec.compile(scale)
        runner = self._runner_for(spec)
        for idx, result in runner.run_iter(compiled.tasks):
            yield compiled.infos[idx], result

    def portfolio(self, spec: ScenarioSpec, scale: str = "quick"
                  ) -> "ScenarioRun":
        """Best-schedule-per-instance competition over the spec's algorithms."""
        return self._run_portfolio(spec, scale)

    def _run_portfolio(self, spec: ScenarioSpec, scale: str) -> "ScenarioRun":
        compiled = spec.compile(scale)
        runner = self._runner_for(spec)
        instances = [inst for _params, _seed, inst in compiled.points]
        names = [sweep.name for sweep in spec.algorithms]
        kwargs = {sweep.name: variant
                  for sweep in spec.algorithms
                  for variant in sweep.variants() if variant}
        budget_s = (spec.budget.timeout_s
                    if spec.budget is not None else None)
        start = time.perf_counter()
        winners = runner.portfolio(instances, names, kwargs=kwargs or None,
                                   budget_s=budget_s)
        wall = time.perf_counter() - start
        infos = [TaskInfo(algorithm=result.name, params={}, point_index=i,
                          seed=compiled.points[i][1])
                 for i, result in enumerate(winners)]
        return ScenarioRun(compiled=compiled, results=winners,
                           wall_seconds=wall, infos_override=infos,
                           portfolio=True)

    def _references(self, spec: ScenarioSpec, compiled: CompiledScenario):
        if spec.reference is None:
            return None
        from repro.analysis.ratios import reference_makespan

        return [reference_makespan(inst,
                                   exact_limit=spec.reference.exact_limit,
                                   time_limit=spec.reference.time_limit)
                for _params, _seed, inst in compiled.points]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.config})"


class ScenarioRun:
    """The outcome of one scenario execution: aligned tasks + results.

    ``results`` aligns with the compiled task list in grid mode and with
    the instance points in portfolio mode; :meth:`table` renders the
    spec-declared :class:`ResultTable`, :meth:`by_algorithm` recovers one
    algorithm variant's results in instance order (the hook the ported
    experiments build their golden tables from).
    """

    def __init__(self, *, compiled: CompiledScenario,
                 results: List[AlgorithmResult], wall_seconds: float,
                 references: Optional[List[Any]] = None,
                 infos_override: Optional[List[TaskInfo]] = None,
                 portfolio: bool = False) -> None:
        self.compiled = compiled
        self.spec = compiled.spec
        self.scale = compiled.scale
        self.points = compiled.points
        self.tasks = compiled.tasks
        self.infos = (infos_override if infos_override is not None
                      else compiled.infos)
        self.results = results
        self.references = references
        self.wall_seconds = wall_seconds
        self.portfolio = portfolio

    def __len__(self) -> int:
        return len(self.results)

    # ------------------------------------------------------------------
    # aligned access
    # ------------------------------------------------------------------
    def by_algorithm(self, name: str, **params: Any) -> List[AlgorithmResult]:
        """One algorithm variant's results, in instance-point order.

        ``params`` pins grid parameters when the spec declares more than
        one variant for ``name`` (ambiguity raises, mirroring
        :meth:`BatchResult.by_algorithm`).
        """
        if self.portfolio:
            raise ValueError("a portfolio run has winners, not per-"
                             "algorithm grids; read .results directly")
        # A seed_kwarg param varies per instance point by design; it never
        # distinguishes *variants* and must not trip the ambiguity check.
        per_point = {s.seed_kwarg for s in self.spec.algorithms
                     if s.name == name and s.seed_kwarg is not None}
        matched: Dict[Tuple[int, str], AlgorithmResult] = {}
        variants = set()
        for info, result in zip(self.infos, self.results):
            if info.algorithm != name:
                continue
            if any(info.params.get(k) != v for k, v in params.items()):
                continue
            fingerprint = repr(sorted(
                (k, v) for k, v in info.params.items()
                if k not in params and k not in per_point))
            variants.add(fingerprint)
            matched[(info.point_index, fingerprint)] = result
        if not matched:
            raise KeyError(f"no results for algorithm {name!r} "
                           f"with params {params!r}")
        if len(variants) > 1:
            raise ValueError(
                f"by_algorithm({name!r}) is ambiguous: the spec ran it "
                f"with multiple param variants; pin them via keyword "
                f"arguments")
        fingerprint = next(iter(variants))
        return [matched[(i, fingerprint)] for i in range(len(self.points))]

    # ------------------------------------------------------------------
    # table rendering
    # ------------------------------------------------------------------
    def rows(self) -> List[Dict[str, Any]]:
        """One dict per result with every available column filled in."""
        out: List[Dict[str, Any]] = []
        for info, result in zip(self.infos, self.results):
            point_params, seed, instance = self.points[info.point_index]
            row: Dict[str, Any] = {}
            row["algorithm" if not self.portfolio else "winner"] = result.name
            for key, value in point_params.items():
                if key not in _SIZE_KEYS:
                    row[key] = value
            for key, value in info.params.items():
                row[key] = value
            row.update(n=instance.num_jobs, m=instance.num_machines,
                       K=instance.num_classes, seed=seed,
                       makespan=result.makespan,
                       runtime_s=result.runtime_seconds,
                       guarantee=result.guarantee)
            if self.references is not None:
                ref = self.references[info.point_index]
                row["reference"] = ref.kind
                row["ratio"] = result.ratio_to(ref.value)
            out.append(row)
        return out

    def _default_columns(self, rows: List[Dict[str, Any]]) -> List[str]:
        lead = "winner" if self.portfolio else "algorithm"
        tail = ["n", "m", "K", "seed", "makespan", "runtime_s"]
        if self.references is not None:
            tail += ["reference", "ratio"]
        middle: List[str] = []
        for row in rows:
            for key in row:
                if key != lead and key not in tail and key != "guarantee" \
                        and key not in middle:
                    middle.append(key)
        return [lead, *middle, *tail]

    def table(self) -> ResultTable:
        """Render the spec-declared :class:`ResultTable`."""
        rows = self.rows()
        available = {key for row in rows for key in row}
        if self.spec.columns:
            missing = set(self.spec.columns) - available
            if missing and rows:
                raise ValueError(
                    f"scenario {self.spec.name!r} declares unknown "
                    f"column(s) {sorted(missing)}; available: "
                    f"{sorted(available)}")
            columns = list(self.spec.columns)
        else:
            columns = self._default_columns(rows)
        title = self.spec.title or f"scenario {self.spec.name}"
        mode = "portfolio" if self.portfolio else "grid"
        table = ResultTable(
            title=f"{title} [{mode} · scale={self.scale}]",
            columns=columns)
        for row in rows:
            table.add_row(**{key: row.get(key) for key in columns
                             if key in row})
        for note in self.spec.notes:
            table.add_note(note)
        return table
