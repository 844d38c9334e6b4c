"""The experiment registry: one function per experiment id (E1–E9, F1).

Every function returns a :class:`repro.analysis.tables.ResultTable`; the
benchmark harness (``benchmarks/``) times the function and prints the
table.  All experiments are seeded through :mod:`repro.generators.suites`,
so re-running them reproduces the same rows.

The E-experiments are *thin wrappers*: each declares its sweep as a
:class:`~repro.api.ScenarioSpec` (suite + algorithm grid + scale presets),
executes it through the shared :class:`~repro.api.Session` facade, and
keeps only the post-processing that turns aligned results into its
published table (reference solves, ratio columns).  Non-algorithm sweep
steps (the E4 hardness construction, the E8 dual-search probes, the F1
structure analysis) go through ``Session.map``.  Every experiment takes
``(scale, session)``: :func:`run_experiment` builds one :class:`Session`
(with the caller's ``store_path``) and hands it over.

The paper itself contains no empirical evaluation (it is a theory paper);
the experiments here verify each proven guarantee empirically and
regenerate the structural content of Figure 1.  ``scale`` trades instance
count/size against runtime: ``"quick"`` is the pytest-benchmark default,
``"full"`` the larger sweeps (``--scale=full``).  The serving stack
itself is measured by ``perfbench/run.py``, not here.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms.lpt import LPT_GUARANTEE
from repro.algorithms.ptas import PTASParams, compute_groups, simplify_instance
from repro.algorithms.unrelated import theoretical_ratio_bound
from repro.analysis.ratios import reference_makespan
from repro.analysis.tables import ResultTable
from repro.api import AlgorithmSweep, ScalePreset, ScenarioSpec, Session
from repro.core.bounds import greedy_upper_bound, lp_lower_bound, makespan_bounds
from repro.core.dual import dual_approximation_search
from repro.core.instance import Instance
from repro.generators.suites import SUITES, iter_suite
from repro.setcover import (
    greedy_set_cover,
    integrality_gap_instance,
    lp_cover_value,
    planted_cover_instance,
    reduce_to_scheduling,
)

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "experiment_e1_lpt",
    "experiment_e2_ptas",
    "experiment_e3_randomized_rounding",
    "experiment_e4_hardness_gap",
    "experiment_e5_class_uniform_restrictions",
    "experiment_e6_class_uniform_ptimes",
    "experiment_e7_baselines",
    "experiment_e8_dual_search",
    "experiment_e9_scalability",
    "experiment_f1_speed_groups",
]


# ---------------------------------------------------------------------------
# E1 — LPT with setup placeholders (Lemma 2.1)
# ---------------------------------------------------------------------------
E1_SPEC = ScenarioSpec(
    name="e1-lpt",
    suite="e1_lpt_uniform",
    algorithms=(AlgorithmSweep.make("lpt-with-setups"),
                AlgorithmSweep.make("lpt-class-oblivious")),
    scales={"quick": ScalePreset(max_points=5), "full": ScalePreset()},
)


def experiment_e1_lpt(scale: str = "quick",
                      session: Optional[Session] = None) -> ResultTable:
    """Measured ratio of the Lemma 2.1 LPT algorithm vs its 4.74 guarantee."""
    quick = scale == "quick"
    table = ResultTable(
        title="E1: LPT with setup placeholders on uniform machines (Lemma 2.1)",
        columns=["n", "m", "K", "setup_regime", "reference", "lpt_ratio",
                 "plain_lpt_ratio", "guarantee"],
    )
    run = (session or Session()).run(E1_SPEC, scale=scale)
    lpt_results = run.by_algorithm("lpt-with-setups")
    plain_results = run.by_algorithm("lpt-class-oblivious")
    for (params, seed, inst), lpt, plain in zip(run.points, lpt_results,
                                                plain_results):
        ref = reference_makespan(inst, exact_limit=700 if quick else 2000)
        table.add_row(
            n=inst.num_jobs, m=inst.num_machines, K=inst.num_classes,
            setup_regime=params.get("setup_regime", "comparable"),
            reference=ref.kind,
            lpt_ratio=lpt.ratio_to(ref.value),
            plain_lpt_ratio=plain.ratio_to(ref.value),
            guarantee=LPT_GUARANTEE,
        )
    table.add_note("expected shape: lpt_ratio stays well below the 4.74 guarantee and "
                   "below the class-oblivious plain LPT on dominant-setup instances")
    return table


# ---------------------------------------------------------------------------
# E2 — PTAS for uniform machines (Section 2)
# ---------------------------------------------------------------------------
def experiment_e2_ptas(scale: str = "quick",
                       session: Optional[Session] = None) -> ResultTable:
    """Measured PTAS ratio and runtime as ε shrinks."""
    quick = scale == "quick"
    epsilons = [0.5, 0.25, 0.1] if quick else [0.5, 0.25, 0.1, 0.05]
    spec = ScenarioSpec(
        name="e2-ptas",
        suite="e2_ptas_uniform",
        algorithms=(AlgorithmSweep.make("lpt-with-setups"),
                    AlgorithmSweep.make("ptas-uniform",
                                        {"epsilon": epsilons})),
        scales={"quick": ScalePreset(max_points=4), "full": ScalePreset()},
    )
    table = ResultTable(
        title="E2: PTAS on uniform machines (Section 2.1) — ratio vs epsilon",
        columns=["epsilon", "instances", "mean_ratio", "max_ratio", "mean_runtime_s",
                 "lpt_mean_ratio"],
    )
    run = (session or Session()).run(spec, scale=scale)
    refs = [reference_makespan(inst, exact_limit=500)
            for _params, _seed, inst in run.points]
    # The LPT baseline is epsilon-independent; the shared cache means the
    # grid costs one LPT run per instance regardless of len(epsilons).
    lpt_results = run.by_algorithm("lpt-with-setups")
    for eps in epsilons:
        ptas_results = run.by_algorithm("ptas-uniform", epsilon=eps)
        ratios = [res.ratio_to(ref.value) for res, ref in zip(ptas_results, refs)]
        lpt_ratios = [res.ratio_to(ref.value) for res, ref in zip(lpt_results, refs)]
        runtimes = [res.runtime_seconds for res in ptas_results]
        table.add_row(
            epsilon=eps, instances=len(run.points),
            mean_ratio=float(np.mean(ratios)), max_ratio=float(np.max(ratios)),
            mean_runtime_s=float(np.mean(runtimes)),
            lpt_mean_ratio=float(np.mean(lpt_ratios)),
        )
    table.add_note("expected shape: mean_ratio decreases toward 1 as epsilon shrinks "
                   "and beats the LPT baseline; runtime grows as epsilon shrinks")
    return table


# ---------------------------------------------------------------------------
# E3 — randomized rounding on unrelated machines (Section 3.1)
# ---------------------------------------------------------------------------
def experiment_e3_randomized_rounding(scale: str = "quick",
                                      session: Optional[Session] = None) -> ResultTable:
    """Measured rounding ratio against the LP lower bound and the Chernoff bound."""
    quick = scale == "quick"
    spec = ScenarioSpec(
        name="e3-randomized-rounding",
        suite="e3_randomized_rounding",
        algorithms=(AlgorithmSweep.make("randomized-rounding",
                                        {"restarts": 1 if quick else 3},
                                        seed_kwarg="seed"),
                    AlgorithmSweep.make("class-aware-greedy")),
        scales={"quick": ScalePreset(max_points=4), "full": ScalePreset()},
    )
    table = ResultTable(
        title="E3: randomized LP rounding on unrelated machines (Theorem 3.3)",
        columns=["n", "m", "K", "correlation", "reference", "ratio",
                 "theoretical_bound", "greedy_ratio"],
    )
    run = (session or Session()).run(spec, scale=scale)
    rounding_results = run.by_algorithm("randomized-rounding")
    greedy_results = run.by_algorithm("class-aware-greedy")
    for (params, seed, inst), rounding, greedy in zip(run.points,
                                                      rounding_results,
                                                      greedy_results):
        ref = reference_makespan(inst, exact_limit=500 if quick else 1200)
        table.add_row(
            n=inst.num_jobs, m=inst.num_machines, K=inst.num_classes,
            correlation=params.get("correlation", "uncorrelated"),
            reference=ref.kind,
            ratio=rounding.ratio_to(ref.value),
            theoretical_bound=theoretical_ratio_bound(inst.num_jobs, inst.num_machines),
            greedy_ratio=greedy.ratio_to(ref.value),
        )
    table.add_note("expected shape: measured ratio stays far below the O(log n + log m) "
                   "bound on benign instances and grows with n·m on adversarial ones (see E4)")
    return table


# ---------------------------------------------------------------------------
# E4 — hardness construction (Section 3.2)
# ---------------------------------------------------------------------------
def _e4_row(args: Tuple[int, int]) -> Dict[str, object]:
    """One hardness point (module-level so ``Session.map`` can ship it)."""
    q, rng_seed = args
    universe = 4 * q
    num_subsets = 2 * q
    t = max(2, q - 1)
    setcover, planted = planted_cover_instance(universe, num_subsets, t, seed=rng_seed + q)
    hardness = reduce_to_scheduling(setcover, t, seed=rng_seed + 100 + q)
    yes_schedule = hardness.schedule_from_cover(planted)
    greedy_cover = greedy_set_cover(setcover)
    greedy_schedule = hardness.schedule_from_cover(greedy_cover)
    alpha = math.log(max(universe, 2))
    gap_inst = integrality_gap_instance(q)
    return {
        "universe": universe, "subsets": num_subsets, "t": t, "K": hardness.num_classes,
        "yes_makespan": yes_schedule.makespan(),
        "greedy_makespan": greedy_schedule.makespan(),
        "no_lower_bound(alpha=lnN)": hardness.no_instance_lower_bound(alpha),
        "sc_lp_value": lp_cover_value(gap_inst),
        "sc_greedy_size": len(greedy_set_cover(gap_inst)),
    }


def experiment_e4_hardness_gap(scale: str = "quick",
                               session: Optional[Session] = None) -> ResultTable:
    """Yes/No makespan gap of the SetCoverGap reduction and the SetCover LP gap."""
    quick = scale == "quick"
    qs = [3, 4] if quick else [3, 4, 5, 6]
    table = ResultTable(
        title="E4: hardness construction (Theorem 3.5) — Yes/No gap and integrality gap",
        columns=["universe", "subsets", "t", "K", "yes_makespan", "greedy_makespan",
                 "no_lower_bound(alpha=lnN)", "sc_lp_value", "sc_greedy_size"],
    )
    rng_seed = 20190415
    for row in (session or Session()).map(_e4_row, [(q, rng_seed) for q in qs]):
        table.add_row(**row)
    table.add_note("expected shape: yes_makespan stays near (K/m)·t while the no-instance "
                   "lower bound grows by the Θ(log N) factor alpha; the SetCover LP value "
                   "stays < 2 while the integral cover needs ≥ q sets (Ω(log N) gap)")
    return table


# ---------------------------------------------------------------------------
# E5 / E6 — constant-factor special cases (Section 3.3)
# ---------------------------------------------------------------------------
E5_SPEC = ScenarioSpec(
    name="e5-class-uniform-restrictions",
    suite="e5_class_uniform_restrictions",
    algorithms=(AlgorithmSweep.make("class-uniform-restrictions-2approx"),
                AlgorithmSweep.make("class-aware-greedy")),
    scales={"quick": ScalePreset(max_points=4), "full": ScalePreset()},
)


def experiment_e5_class_uniform_restrictions(
        scale: str = "quick",
        session: Optional[Session] = None) -> ResultTable:
    """Measured ratio of the 2-approximation of Theorem 3.10."""
    quick = scale == "quick"
    table = ResultTable(
        title="E5: restricted assignment with class-uniform restrictions (Theorem 3.10)",
        columns=["n", "m", "K", "reference", "ratio", "guarantee", "greedy_ratio"],
    )
    run = (session or Session()).run(E5_SPEC, scale=scale)
    approx_results = run.by_algorithm("class-uniform-restrictions-2approx")
    greedy_results = run.by_algorithm("class-aware-greedy")
    for (params, seed, inst), result, greedy in zip(run.points, approx_results,
                                                    greedy_results):
        ref = reference_makespan(inst, exact_limit=500 if quick else 1500)
        table.add_row(
            n=inst.num_jobs, m=inst.num_machines, K=inst.num_classes, reference=ref.kind,
            ratio=result.ratio_to(ref.value), guarantee=2.0,
            greedy_ratio=greedy.ratio_to(ref.value),
        )
    table.add_note("expected shape: every measured ratio is at most 2 (plus the binary-search "
                   "slack), matching Theorem 3.10")
    return table


E6_SPEC = ScenarioSpec(
    name="e6-class-uniform-ptimes",
    suite="e6_class_uniform_ptimes",
    algorithms=(AlgorithmSweep.make("class-uniform-ptimes-3approx"),
                AlgorithmSweep.make("randomized-rounding", {"restarts": 1},
                                    seed_kwarg="seed")),
    scales={"quick": ScalePreset(max_points=4), "full": ScalePreset()},
)


def experiment_e6_class_uniform_ptimes(
        scale: str = "quick",
        session: Optional[Session] = None) -> ResultTable:
    """Measured ratio of the 3-approximation of Theorem 3.11."""
    quick = scale == "quick"
    table = ResultTable(
        title="E6: unrelated machines with class-uniform processing times (Theorem 3.11)",
        columns=["n", "m", "K", "reference", "ratio", "guarantee", "rounding_ratio"],
    )
    run = (session or Session()).run(E6_SPEC, scale=scale)
    approx_results = run.by_algorithm("class-uniform-ptimes-3approx")
    rounding_results = run.by_algorithm("randomized-rounding")
    for (params, seed, inst), result, rounding in zip(run.points, approx_results,
                                                      rounding_results):
        ref = reference_makespan(inst, exact_limit=500 if quick else 1500)
        table.add_row(
            n=inst.num_jobs, m=inst.num_machines, K=inst.num_classes, reference=ref.kind,
            ratio=result.ratio_to(ref.value), guarantee=3.0,
            rounding_ratio=rounding.ratio_to(ref.value),
        )
    table.add_note("expected shape: every measured ratio is at most 3; the specialised "
                   "algorithm is competitive with (and its guarantee much stronger than) "
                   "the generic randomized rounding")
    return table


# ---------------------------------------------------------------------------
# E7 — baselines (motivation)
# ---------------------------------------------------------------------------
E7_UNIFORM_SPEC = ScenarioSpec(
    name="e7-baselines-uniform",
    suite="e7_baselines_uniform",
    algorithms=(AlgorithmSweep.make("class-oblivious-list"),
                AlgorithmSweep.make("class-aware-greedy"),
                AlgorithmSweep.make("lpt-with-setups"),
                AlgorithmSweep.make("best-machine")),
    scales={"quick": ScalePreset(max_points=3), "full": ScalePreset()},
)

E7_UNRELATED_SPEC = ScenarioSpec(
    name="e7-baselines-unrelated",
    suite="e7_baselines_unrelated",
    algorithms=(AlgorithmSweep.make("class-oblivious-list"),
                AlgorithmSweep.make("class-aware-greedy"),
                AlgorithmSweep.make("best-machine")),
    scales={"quick": ScalePreset(max_points=2), "full": ScalePreset()},
)


def experiment_e7_baselines(scale: str = "quick",
                            session: Optional[Session] = None) -> ResultTable:
    """Class-aware vs class-oblivious scheduling across setup regimes."""
    table = ResultTable(
        title="E7: class-aware vs class-oblivious baselines across setup regimes",
        columns=["environment", "setup_regime", "reference", "class_oblivious_ratio",
                 "class_aware_ratio", "lpt_with_setups_ratio", "best_machine_ratio"],
    )
    session = session or Session()

    uniform_run = session.run(E7_UNIFORM_SPEC, scale=scale)
    oblivious = uniform_run.by_algorithm("class-oblivious-list")
    aware = uniform_run.by_algorithm("class-aware-greedy")
    lpt = uniform_run.by_algorithm("lpt-with-setups")
    best = uniform_run.by_algorithm("best-machine")
    for idx, (params, seed, inst) in enumerate(uniform_run.points):
        ref = reference_makespan(inst, exact_limit=600)
        table.add_row(
            environment="uniform", setup_regime=params.get("setup_regime"),
            reference=ref.kind,
            class_oblivious_ratio=oblivious[idx].ratio_to(ref.value),
            class_aware_ratio=aware[idx].ratio_to(ref.value),
            lpt_with_setups_ratio=lpt[idx].ratio_to(ref.value),
            best_machine_ratio=best[idx].ratio_to(ref.value),
        )

    unrelated_run = session.run(E7_UNRELATED_SPEC, scale=scale)
    oblivious = unrelated_run.by_algorithm("class-oblivious-list")
    aware = unrelated_run.by_algorithm("class-aware-greedy")
    best = unrelated_run.by_algorithm("best-machine")
    for idx, (params, seed, inst) in enumerate(unrelated_run.points):
        ref = reference_makespan(inst, exact_limit=600)
        setup_range = params.get("setup_range", (1.0, 100.0))
        regime = "dominant" if setup_range[0] >= 50 else "small"
        table.add_row(
            environment="unrelated", setup_regime=regime, reference=ref.kind,
            class_oblivious_ratio=oblivious[idx].ratio_to(ref.value),
            class_aware_ratio=aware[idx].ratio_to(ref.value),
            best_machine_ratio=best[idx].ratio_to(ref.value),
        )
    table.add_note("expected shape: class-oblivious scheduling degrades as setups grow "
                   "(dominant regime) while class-aware algorithms stay bounded — the "
                   "motivation of the paper's model")
    return table


# ---------------------------------------------------------------------------
# E8 — dual approximation search behaviour
# ---------------------------------------------------------------------------
def _e8_rows(args: Tuple[Instance, Tuple[float, ...]]) -> List[Dict[str, object]]:
    """All dual-search probes of one instance (module-level for ``Session.map``).

    Grouped per instance so the bounds are computed once and the instance
    is shipped to the pool once, not once per precision.
    """
    inst, precisions = args
    bounds = makespan_bounds(inst)

    def decision(guess: float):
        _, schedule = greedy_upper_bound(inst)
        return schedule if schedule.makespan() <= 3.0 * guess else None

    rows = []
    for precision in precisions:
        result = dual_approximation_search(inst, decision, precision=precision,
                                           bounds=bounds)
        final_gap = (result.accepted_guess / result.rejected_guess
                     if result.rejected_guess else float("nan"))
        rows.append({
            "n": inst.num_jobs, "m": inst.num_machines, "precision": precision,
            "iterations": result.iterations, "accepted_guess": result.accepted_guess,
            "initial_gap": bounds.width(), "final_gap": final_gap,
        })
    return rows


def experiment_e8_dual_search(scale: str = "quick",
                              session: Optional[Session] = None) -> ResultTable:
    """Convergence of the dual-approximation binary search (Section 1.1.1)."""
    quick = scale == "quick"
    table = ResultTable(
        title="E8: dual-approximation binary search convergence",
        columns=["n", "m", "precision", "iterations", "accepted_guess", "initial_gap",
                 "final_gap"],
    )
    precisions = [0.1, 0.02] if quick else [0.2, 0.1, 0.05, 0.02, 0.01]
    points = list(iter_suite(SUITES["e8_dual_search"]))
    if quick:
        points = points[:2]
    probes = [(inst, tuple(precisions)) for _params, _seed, inst in points]
    for rows in (session or Session()).map(_e8_rows, probes):
        for row in rows:
            table.add_row(**row)
    table.add_note("expected shape: iterations grow logarithmically as the precision shrinks; "
                   "the final accepted/rejected gap is at most 1+precision")
    return table


# ---------------------------------------------------------------------------
# E9 — scalability
# ---------------------------------------------------------------------------
E9_SPEC = ScenarioSpec(
    name="e9-scalability",
    suite="e9_scalability",
    algorithms=(AlgorithmSweep.make("lpt-with-setups"),
                AlgorithmSweep.make("class-aware-greedy"),
                AlgorithmSweep.make("ptas-uniform", {"epsilon": 0.25})),
    scales={"quick": ScalePreset(max_points=2), "full": ScalePreset()},
)


def experiment_e9_scalability(scale: str = "quick",
                              session: Optional[Session] = None) -> ResultTable:
    """Runtime of the polynomial-time algorithms as n, m, K grow.

    Uses a dedicated single-worker runner (``Session.build_runner``): the
    measured quantity *is* the per-task runtime, and concurrent siblings
    on a process pool would contaminate it with cache/bandwidth
    contention.
    """
    table = ResultTable(
        title="E9: runtime scalability of the polynomial-time algorithms",
        columns=["n", "m", "K", "lpt_s", "greedy_s", "ptas_eps0.25_s", "lp_lower_bound_s"],
    )
    session = session or Session()
    compiled = E9_SPEC.compile(scale)
    runner = session.build_runner(max_workers=1, cache=False, store=None,
                                  backend=None)
    batch = runner.run_tasks(compiled.tasks).raise_for_failures()
    run = _scenario_run_over(compiled, batch)
    lpt = run.by_algorithm("lpt-with-setups")
    greedy = run.by_algorithm("class-aware-greedy")
    ptas = run.by_algorithm("ptas-uniform")
    for idx, (params, seed, inst) in enumerate(compiled.points):
        t_lp = float("nan")
        if inst.num_jobs * inst.num_machines <= 20000:
            t0 = time.perf_counter()
            lp_lower_bound(inst)
            t_lp = time.perf_counter() - t0
        table.add_row(n=inst.num_jobs, m=inst.num_machines, K=inst.num_classes,
                      **{"lpt_s": lpt[idx].runtime_seconds,
                         "greedy_s": greedy[idx].runtime_seconds,
                         "ptas_eps0.25_s": ptas[idx].runtime_seconds,
                         "lp_lower_bound_s": t_lp})
    table.add_note("expected shape: near-linear growth for LPT/greedy, polynomial for the "
                   "PTAS decision and the LP")
    return table


def _scenario_run_over(compiled, batch):
    """A :class:`~repro.api.ScenarioRun` over an externally executed batch
    (experiments that need a bespoke runner still get aligned access)."""
    from repro.api.session import ScenarioRun

    return ScenarioRun(compiled=compiled, results=list(batch.results),
                       wall_seconds=batch.wall_seconds)


# ---------------------------------------------------------------------------
# F1 — Figure 1 (speed groups)
# ---------------------------------------------------------------------------
def _f1_rows(args: Tuple[Instance, float]) -> List[Dict[str, object]]:
    """Group-structure rows for one instance (shipped through ``Session.map``)."""
    inst, eps = args
    ptas_params = PTASParams(epsilon=eps)
    guess = makespan_bounds(inst).upper
    simplified = simplify_instance(inst, guess, ptas_params)
    assert simplified is not None
    groups = compute_groups(simplified.instance, simplified.inflated_guess, ptas_params)
    rows = []
    for g in groups.groups_with_machines():
        lo, hi = groups.group_bounds(g)
        classes_here = [k for k in range(simplified.instance.num_classes)
                        if int(groups.class_core_group[k]) == g]
        rows.append({
            "group": g, "speed_low": lo, "speed_high": hi,
            "num_machines": len(groups.machines_only_in_group(g)),
            "classes_with_core_group": len(classes_here),
            "fringe_jobs_native_here": len(groups.fringe_jobs_with_native_group(g)),
        })
    return rows


def experiment_f1_speed_groups(scale: str = "quick",
                               session: Optional[Session] = None) -> ResultTable:
    """Regenerate the structural content of Figure 1 for a generated instance."""
    spec = SUITES["f1_speed_groups"]
    params, seed, inst = next(iter(iter_suite(spec)))
    table = ResultTable(
        title="F1: speed groups and per-class core intervals (Figure 1)",
        columns=["group", "speed_low", "speed_high", "num_machines", "classes_with_core_group",
                 "fringe_jobs_native_here"],
    )
    for rows in (session or Session()).map(_f1_rows, [(inst, 0.25)]):
        for row in rows:
            table.add_row(**row)
    table.add_note("groups overlap pairwise (each speed lies in exactly two consecutive "
                   "groups); per-class core-machine speed intervals are fully contained in "
                   "the class's core group, as sketched in Figure 1")
    return table


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[[str, Session], ResultTable]] = {
    "E1": experiment_e1_lpt,
    "E2": experiment_e2_ptas,
    "E3": experiment_e3_randomized_rounding,
    "E4": experiment_e4_hardness_gap,
    "E5": experiment_e5_class_uniform_restrictions,
    "E6": experiment_e6_class_uniform_ptimes,
    "E7": experiment_e7_baselines,
    "E8": experiment_e8_dual_search,
    "E9": experiment_e9_scalability,
    "F1": experiment_f1_speed_groups,
}


def run_experiment(experiment_id: str, scale: str = "quick",
                   store_path: Union[None, str, Path] = None) -> ResultTable:
    """Run one experiment by id (``"E1"`` … ``"E9"``, ``"F1"``).

    The experiment runs on one :class:`Session`: ``store_path`` gives it a
    persistent result store so sweep results are reused across processes
    (``None`` leaves the store to ``REPRO_RESULT_STORE``).  E9 times its
    tasks on a dedicated store-less runner by design.
    """
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}")
    session = (Session(store_path=store_path) if store_path is not None
               else Session())
    return EXPERIMENTS[key](scale, session)
