"""The four benchmark workloads: what each one compiles and how it runs.

Every workload is built from public ``repro.api`` pieces only: a
:class:`~repro.api.ScenarioSpec` (inline generator sweep or named suite)
compiled to ``BatchTask`` lists, and a :class:`~repro.api.Session`
configuration.  Inputs depend on ``--seed`` alone: the seed picks the
generator ``base_seed`` of every spec, and compiles are deterministic.

Importing this module imports ``repro``; ``run.py`` puts the checkout's
``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.api import AlgorithmSweep, ScalePreset, ScenarioSpec, Session

__all__ = ["WORKLOADS", "Workload", "base_seed"]

#: Seed offsets are spaced wider than any suite's ``1000 * point + rep``
#: range, so two benchmark seeds never share an instance.
_SEED_ROOT = 20190415
_SEED_STRIDE = 10007

#: Every spec runs its whole sweep: one scale, no point cap.
_SCALES = {"bench": ScalePreset()}

#: The sweep-uniform mix, reused by queue-batches.
_UNIFORM_POINTS = (
    {"num_jobs": 200, "num_machines": 8, "num_classes": 10,
     "setup_regime": "comparable"},
    {"num_jobs": 200, "num_machines": 8, "num_classes": 10,
     "setup_regime": "dominant"},
    {"num_jobs": 400, "num_machines": 16, "num_classes": 20,
     "setup_regime": "small"},
)
_UNIFORM_ALGORITHMS = (
    AlgorithmSweep.make("lpt-with-setups"),
    AlgorithmSweep.make("lpt-class-oblivious"),
    AlgorithmSweep.make("class-aware-greedy"),
    AlgorithmSweep.make("ptas-uniform", {"epsilon": 0.5}),
)

#: Queue batches hold this many tasks ("about a dozen").
QUEUE_BATCH = 12


def base_seed(seed: int) -> int:
    """The generator ``base_seed`` for benchmark seed ``seed``."""
    return _SEED_ROOT + _SEED_STRIDE * int(seed)


def _uniform_mix(seed: int, replications: int) -> List[ScenarioSpec]:
    return [ScenarioSpec(
        name="bench-uniform-mix", generator="uniform_instance",
        sweep=_UNIFORM_POINTS, replications=replications,
        base_seed=base_seed(seed), algorithms=_UNIFORM_ALGORITHMS,
        scales=_SCALES)]


def _lp_suites(seed: int) -> List[ScenarioSpec]:
    """E3, E5 and E6, each with the paper algorithm it was built for."""
    entries = (
        ("e3_randomized_rounding",
         AlgorithmSweep.make("randomized-rounding", {"restarts": 1},
                             seed_kwarg="seed")),
        ("e5_class_uniform_restrictions",
         AlgorithmSweep.make("class-uniform-restrictions-2approx")),
        ("e6_class_uniform_ptimes",
         AlgorithmSweep.make("class-uniform-ptimes-3approx")),
    )
    return [ScenarioSpec(name=f"bench-{suite}", suite=suite, replications=4,
                         base_seed=base_seed(seed), algorithms=(sweep,),
                         scales=_SCALES)
            for suite, sweep in entries]


def _replay_set(seed: int) -> List[ScenarioSpec]:
    return [ScenarioSpec(
        name="bench-replay", generator="uniform_instance",
        sweep=({"num_jobs": 300, "num_machines": 12, "num_classes": 16,
                "setup_regime": "comparable"},
               {"num_jobs": 100, "num_machines": 4, "num_classes": 6,
                "setup_regime": "dominant"}),
        replications=200, base_seed=base_seed(seed),
        algorithms=(AlgorithmSweep.make("lpt-with-setups"),
                    AlgorithmSweep.make("class-aware-greedy"),
                    AlgorithmSweep.make("lpt-class-oblivious")),
        scales=_SCALES)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` selects the timed loop in ``run.py``: ``"sweep"`` runs cold
    rounds (fresh store, fresh runner, one batch of every task),
    ``"queue"`` submits back-to-back small batches from one session, and
    ``"replay"`` replays a store filled during preparation.
    """

    name: str
    kind: str
    specs: Callable[[int], List[ScenarioSpec]]
    #: Submit in groups of ``QUEUE_BATCH`` tasks that each run every
    #: algorithm on a few instances, instead of the compile's
    #: algorithm-major order.  Then the cheap algorithms do not all finish
    #: first, and p50 does not sit on the step between cheap and PTAS tasks.
    interleave: bool = False

    def compile(self, seed: int) -> List[Any]:
        """All tasks for ``seed``, in deterministic submission order."""
        tasks = [task for spec in self.specs(seed)
                 for task in spec.compile("bench").tasks]
        if self.interleave:
            stride = len(tasks) // QUEUE_BATCH
            tasks = [t for i in range(stride) for t in tasks[i::stride]]
        return tasks

    def batches(self, tasks: List[Any]) -> List[List[Any]]:
        """The small batches a queue client submits ``tasks`` in."""
        return [tasks[i:i + QUEUE_BATCH]
                for i in range(0, len(tasks), QUEUE_BATCH)]

    def session(self, store_path: str, nproc: int, **overrides: Any) -> Session:
        """The session the workload's client opens on ``store_path``: the
        default one, or a supervised queue fleet of ``nproc`` workers with
        the submitter only coordinating."""
        options: Dict[str, Any] = {}
        if self.kind == "queue":
            options = {"backend": "queue", "autoscale": nproc,
                       "backend_options": {"inline": False}}
        options.update(overrides)
        return Session(store_path=store_path, **options)


#: Why each workload was chosen is in ``RATIONALE.md``.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sweep-uniform", "sweep",
             lambda seed: _uniform_mix(seed, replications=40), interleave=True),
    Workload("sweep-lp", "sweep", _lp_suites),
    Workload("queue-batches", "queue",
             lambda seed: _uniform_mix(seed, replications=40), interleave=True),
    Workload("replay-warm", "replay", _replay_set),
)}
