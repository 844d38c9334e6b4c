"""Randomized rounding for unrelated machines (Section 3.1).

The algorithm, verbatim from the paper, starting from an optimal fractional
solution ``(x*, y*)`` of the ILP-UM relaxation for makespan guess ``T``:

1. For each machine ``i`` and class ``k``, open a setup (``y_ik = 1``) with
   probability ``y*_ik``; if opened, assign each job ``j`` of class ``k`` to
   ``i`` with probability ``x*_ij / y*_ik``.
2. Repeat step 1 ``c·log n`` times (independently).
3. Jobs still unassigned go to their fastest machine ``argmin_i p_ij``.
4. Duplicate assignments / duplicate setups are dropped (keeping, for each
   job, the assignment on the machine where it is cheapest).

Lemma 3.1 bounds the probability of reaching step 3 by ``1/n^c``;
Lemma 3.2 bounds every machine load by ``O(T(log n + log m))`` w.h.p.;
Theorem 3.3 / Corollary 3.4 conclude the ``O(log n + log m)`` factor, which
is best possible by Theorem 3.5.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.unrelated.lp_relaxation import (
    LPRelaxationResult,
    memoized_relaxation,
    solve_ilp_um_relaxation,
)
from repro.core.bounds import makespan_bounds
from repro.core.dual import dual_approximation_search
from repro.core.instance import Instance
from repro.core.schedule import Schedule
from repro.runtime.registry import register_algorithm
from repro.utils.rng import RandomState, ensure_rng

__all__ = [
    "RoundingStats",
    "randomized_rounding_decision",
    "randomized_rounding_approximation",
    "theoretical_ratio_bound",
]


@dataclass
class RoundingStats:
    """Diagnostics of one randomized-rounding invocation."""

    guess: float
    iterations_used: int
    jobs_left_for_fallback: int
    fractional_makespan: float
    chernoff_bound: float
    makespan: float


def theoretical_ratio_bound(num_jobs: int, num_machines: int, c: float = 2.0) -> float:
    """The paper's high-probability load bound ``(1 + δ)·c·log n`` in units of ``T``.

    With ``δ = 3(log(n+m)/(c log n) + 1)`` (proof of Lemma 3.2) the bound on
    every machine load is ``(1 + δ)·T·c·log n``; this helper returns the
    multiplier of ``T`` so experiments can compare measured ratios against
    it.  Logarithms are base 2, matching the paper's convention.
    """
    n = max(2, int(num_jobs))
    m = max(2, int(num_machines))
    log_n = math.log2(n)
    delta = 3.0 * (math.log2(n + m) / (c * log_n) + 1.0)
    return (1.0 + delta) * c * log_n


def _round_once(instance: Instance, relax: LPRelaxationResult,
                rng: np.random.Generator,
                assigned_machine: np.ndarray) -> None:
    """One iteration of step 1, updating ``assigned_machine`` in place.

    For every job not yet assigned, if some machine ``i`` both opens the
    job's class and samples the job, the job is assigned to the cheapest
    such machine (step 4's duplicate removal, folded in).
    """
    inst = instance
    x, y = relax.x, relax.y
    # Sample setups: (m, K) Bernoulli(y*).
    setup_open = rng.random(y.shape) < y
    # Sample job assignments conditioned on open setups.
    for j in range(inst.num_jobs):
        if assigned_machine[j] >= 0:
            continue
        k = inst.job_class(j)
        best_machine = -1
        best_time = np.inf
        for i in np.flatnonzero(x[:, j] > 0):
            if not setup_open[i, k]:
                continue
            prob = x[i, j] / y[i, k] if y[i, k] > 0 else 0.0
            prob = min(1.0, prob)
            if rng.random() < prob:
                if inst.processing[i, j] < best_time:
                    best_time = inst.processing[i, j]
                    best_machine = int(i)
        if best_machine >= 0:
            assigned_machine[j] = best_machine


def randomized_rounding_decision(
    instance: Instance,
    guess: float,
    *,
    seed: RandomState = None,
    c: float = 2.0,
    relaxation: Optional[LPRelaxationResult] = None,
    stats_out: Optional[List[RoundingStats]] = None,
) -> Optional[Schedule]:
    """The relaxed decision procedure: round the LP for makespan guess ``guess``.

    Returns ``None`` when the LP relaxation itself is infeasible for the
    guess (a certificate that ``|Opt| > guess``); otherwise returns the
    schedule produced by the rounding (whose makespan the analysis bounds by
    ``O(guess·(log n + log m))`` w.h.p.).  When ``stats_out`` is given, a
    :class:`RoundingStats` record for this invocation is appended to it.
    """
    inst = instance
    relax = relaxation if relaxation is not None else solve_ilp_um_relaxation(inst, guess)
    if not relax.feasible:
        return None
    rng = ensure_rng(seed)
    n = max(2, inst.num_jobs)
    iterations = max(1, int(math.ceil(c * math.log2(n))))
    assigned = np.full(inst.num_jobs, -1, dtype=int)
    used_iterations = 0
    for _ in range(iterations):
        used_iterations += 1
        _round_once(inst, relax, rng, assigned)
        if np.all(assigned >= 0):
            break
    # Step 3: leftovers to their fastest machine.
    leftovers = np.flatnonzero(assigned < 0)
    if leftovers.size:
        masked = np.where(np.isfinite(inst.processing[:, leftovers]),
                          inst.processing[:, leftovers], np.inf)
        assigned[leftovers] = np.argmin(masked, axis=0)
    schedule = Schedule(inst, assigned)
    if stats_out is not None:
        stats_out.append(RoundingStats(
            guess=float(guess),
            iterations_used=used_iterations,
            jobs_left_for_fallback=int(leftovers.size),
            fractional_makespan=relax.fractional_makespan,
            chernoff_bound=theoretical_ratio_bound(inst.num_jobs, inst.num_machines, c) * guess,
            makespan=schedule.makespan(),
        ))
    return schedule


@register_algorithm(
    "randomized-rounding",
    guarantee=lambda inst: theoretical_ratio_bound(inst.num_jobs, inst.num_machines),
    tags=("paper", "randomized", "lp"),
)
def randomized_rounding_approximation(
    instance: Instance,
    *,
    seed: RandomState = None,
    c: float = 2.0,
    precision: float = 0.05,
    restarts: int = 1,
) -> AlgorithmResult:
    """The full ``O(log n + log m)``-approximation (Theorem 3.3 + dual search).

    The dual-approximation binary search drives the makespan guess; for each
    guess the LP relaxation decides feasibility and, when feasible, the
    randomized rounding produces a schedule.  ``restarts`` independent
    roundings are performed per accepted guess and the best one kept (pure
    variance reduction; the guarantee needs only one).

    The search solves one LP per distinct column set, not one per guess:
    ``T`` is a minimised column of ILP-UM, so a guess changes the program
    only through constraint (5)'s filter, and guesses that keep the same
    pairs hand the solver identical arrays (see
    :func:`~repro.algorithms.unrelated.lp_relaxation.memoized_relaxation`).
    Results, random draws and ``rounding_stats`` equal those of a fresh
    solve per guess.
    """
    start = time.perf_counter()
    inst = instance
    rng = ensure_rng(seed)
    bounds = makespan_bounds(inst)
    stats_log: List[RoundingStats] = []
    relaxation = memoized_relaxation(inst)

    def decision(guess: float) -> Optional[Schedule]:
        relax = relaxation(guess)
        if not relax.feasible:
            return None
        best: Optional[Schedule] = None
        for _ in range(max(1, restarts)):
            candidate = randomized_rounding_decision(
                inst, guess, seed=rng, c=c, relaxation=relax, stats_out=stats_log)
            if candidate is None:
                continue
            if best is None or candidate.makespan() < best.makespan():
                best = candidate
        return best

    result = dual_approximation_search(inst, decision, precision=precision, bounds=bounds)
    runtime = time.perf_counter() - start
    guarantee = theoretical_ratio_bound(inst.num_jobs, inst.num_machines, c)
    return AlgorithmResult.from_schedule(
        "randomized-rounding", result.schedule, runtime=runtime, guarantee=guarantee,
        meta={
            "accepted_guess": result.accepted_guess,
            "rejected_guess": result.rejected_guess,
            "search_iterations": result.iterations,
            "c": c,
            "restarts": restarts,
            "lp_lower_bound_guess": result.rejected_guess,
            "rounding_stats": [s.__dict__ for s in stats_log[-5:]],
        },
    )
