"""LP-RelaxedRA: the class-level linear program of Section 3.3.

For a makespan guess ``T`` the program has one variable ``x̄_ik`` per
(machine, non-empty class) pair giving the *fraction of the workload* of
class ``k`` processed on machine ``i``:

.. math::

    \\sum_k \\bar x_{ik} (\\bar p_{ik} + \\alpha_{ik} s_{ik}) \\le T
        \\qquad \\forall i                           \\tag{11}

    \\sum_i \\bar x_{ik} = 1 \\qquad \\forall k        \\tag{12}

    \\bar x_{ik} \\ge 0                              \\tag{13}

    \\bar x_{ik} = 0 \\text{ if } s_{ik} > T          \\tag{14}

with ``p̄_ik`` the total workload of class ``k`` on machine ``i`` (``∞`` if
some job of the class is ineligible there) and
``α_ik = max{1, p̄_ik / (T - s_ik)}``.

For the class-uniform processing-times case (Section 3.3.2), constraint
(14) is replaced by (16): ``x̄_ik = 0`` whenever ``s_ik + p_ij > T`` for the
(common) per-job processing time of class ``k`` on machine ``i``.

An *extreme point* (vertex) solution is requested from the simplex backend
because the subsequent rounding relies on the support graph being a
pseudo-forest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.instance import Instance
from repro.lp import SolutionStatus, solve

__all__ = ["RelaxedRAResult", "solve_lp_relaxed_ra", "class_workload_matrix"]


@dataclass
class RelaxedRAResult:
    """Solution of LP-RelaxedRA for a makespan guess.

    Attributes
    ----------
    feasible:
        Whether the LP admits a solution for the guess.
    guess:
        The makespan guess ``T``.
    x:
        ``(m, K)`` array of class fractions ``x̄_ik`` (0 where no variable
        existed).
    workload:
        ``(m, K)`` array of class workloads ``p̄_ik`` (``inf`` marks
        ineligibility).
    per_job_time:
        ``(m, K)`` array of the common per-job processing time of each class
        (only meaningful in the class-uniform processing-times variant;
        ``nan`` otherwise).
    """

    feasible: bool
    guess: float
    x: np.ndarray
    workload: np.ndarray
    per_job_time: np.ndarray


def class_workload_matrix(instance: Instance) -> np.ndarray:
    """``p̄_ik`` for every machine and class (``inf`` where ineligible)."""
    inst = instance
    workload = np.zeros((inst.num_machines, inst.num_classes))
    for k in range(inst.num_classes):
        members = inst.jobs_of_class(k)
        if members.size == 0:
            continue
        block = inst.processing[:, members]
        sums = block.sum(axis=1)
        sums = np.where(np.isfinite(block).all(axis=1), sums, np.inf)
        workload[:, k] = sums
    return workload


def _per_job_time_matrix(instance: Instance) -> np.ndarray:
    """The common per-job processing time of each class on each machine.

    ``nan`` if a class is empty; ``inf`` if the class is ineligible on the
    machine.  Assumes (and does not verify) class-uniform processing times —
    callers that need the guarantee check
    :meth:`Instance.has_class_uniform_processing_times` first.
    """
    inst = instance
    times = np.full((inst.num_machines, inst.num_classes), np.nan)
    for k in range(inst.num_classes):
        members = inst.jobs_of_class(k)
        if members.size == 0:
            continue
        times[:, k] = inst.processing[:, members[0]]
    return times


def solve_lp_relaxed_ra(
    instance: Instance,
    guess: float,
    *,
    variant: str = "restrictions",
    tolerance: float = 1e-9,
) -> RelaxedRAResult:
    """Solve LP-RelaxedRA for makespan guess ``guess``.

    Parameters
    ----------
    variant:
        ``"restrictions"`` uses constraint (14) (Section 3.3.1);
        ``"ptimes"`` uses constraint (16) (Section 3.3.2).
    """
    if variant not in ("restrictions", "ptimes"):
        raise ValueError("variant must be 'restrictions' or 'ptimes'")
    inst = instance
    workload = class_workload_matrix(inst)
    per_job = _per_job_time_matrix(inst)
    classes = inst.classes_present()
    infeasible = RelaxedRAResult(False, float(guess), np.zeros_like(workload),
                                 workload, per_job)

    # One column per eligible (machine, class) pair, class by class.
    setups, loads = inst.setups[:, classes].T, workload[:, classes].T
    if variant == "restrictions":
        fits = setups <= guess + tolerance  # constraint (14)
    else:
        # constraint (16): the per-job time plus setup must fit.
        fits = setups + per_job[:, classes].T <= guess + tolerance
    kpos, machine = np.nonzero(np.isfinite(setups) & np.isfinite(loads) & fits)
    # Constraint (12): each (non-empty) class fully distributed.
    if np.unique(kpos).size < classes.size:
        return infeasible
    num_cols = kpos.size
    cols = np.arange(num_cols)
    s, w = setups[kpos, machine], loads[kpos, machine]
    a_eq = sparse.csr_matrix((np.ones(num_cols), (kpos, cols)),
                             shape=(classes.size, num_cols))

    # Constraint (11): machine capacity with the α_ik surcharge.  Where
    # s_ik == T (within tolerance) the class can only be placed with zero
    # workload; α is irrelevant there but kept finite at 1.
    denom = guess - s
    alpha = np.maximum(1.0, np.divide(w, denom, out=np.ones(num_cols), where=denom > 0))
    used = np.unique(machine)
    cap_row = np.searchsorted(used, machine)
    a_ub = sparse.csr_matrix((w + alpha * s, (cap_row, cols)),
                             shape=(used.size, num_cols))

    # Any feasible point suffices; minimise total setup surcharge to bias the
    # solver toward sparse supports (still a vertex of the same polytope).
    sol = solve(s, a_ub, np.full(used.size, float(guess)), a_eq, np.ones(classes.size),
                0.0, 1.0, vertex=True)
    if sol.status is not SolutionStatus.OPTIMAL:
        return infeasible
    x = np.zeros((inst.num_machines, inst.num_classes))
    x[machine, classes[kpos]] = np.maximum(0.0, sol.values)
    return RelaxedRAResult(True, float(guess), x, workload, per_job)
