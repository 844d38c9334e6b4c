"""The linear relaxation of ILP-UM for a fixed makespan guess ``T``.

This is the fractional program the randomized rounding of Section 3.1
rounds: constraints (1)–(5) of ILP-UM with the integrality constraint (3)
replaced by ``0 ≤ x_ij, y_ik ≤ 1``.  The feasibility question "is there a
fractional solution for guess ``T``?" is answered by minimising the maximum
machine load under constraints (2), (4), (5) and checking whether the
optimum is at most ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ilp_um import build_ilp_um, gather
from repro.core.instance import Instance
from repro.lp import SolutionStatus

__all__ = ["LPRelaxationResult", "solve_ilp_um_relaxation"]


@dataclass
class LPRelaxationResult:
    """Fractional solution of the ILP-UM relaxation for a makespan guess ``T``.

    Attributes
    ----------
    feasible:
        Whether a fractional solution with maximum load at most ``T`` exists
        (within a small numerical tolerance).
    guess:
        The makespan guess the relaxation was solved for.
    fractional_makespan:
        The minimum achievable fractional maximum load under constraint (5)
        for this guess.
    x:
        ``(m, n)`` array of fractional assignment values ``x_ij`` (zero for
        pairs excluded by constraint (5) / ineligibility).
    y:
        ``(m, K)`` array of fractional setup values ``y_ik``.
    """

    feasible: bool
    guess: float
    fractional_makespan: float
    x: np.ndarray
    y: np.ndarray

    def job_distribution(self, job: int) -> np.ndarray:
        """The fractional distribution of ``job`` over machines (sums to 1 when feasible)."""
        return self.x[:, job]


def solve_ilp_um_relaxation(instance: Instance, guess: float,
                            *, tolerance: float = 1e-6) -> LPRelaxationResult:
    """Solve the LP relaxation of ILP-UM for makespan guess ``guess``.

    The LP minimises an auxiliary variable ``Z`` bounding every machine load
    (so the call both answers feasibility for ``guess`` and returns the best
    fractional load achievable under the guess-dependent eligibility
    filtering of constraint (5)).
    """
    inst = instance
    infeasible = LPRelaxationResult(
        feasible=False, guess=float(guess), fractional_makespan=float("inf"),
        x=np.zeros((inst.num_machines, inst.num_jobs)),
        y=np.zeros((inst.num_machines, inst.num_classes)))
    # Constraint (2) needs a column for every job: a job that lost all its
    # machines to the filtering makes the guess infeasible outright.
    model = build_ilp_um(inst, guess, tolerance=tolerance)
    if model is None:
        return infeasible
    sol = model.solve()
    if sol.status is not SolutionStatus.OPTIMAL:
        return infeasible
    fractional = float(sol.objective)
    feasible = fractional <= guess * (1.0 + 1e-9) + tolerance
    return LPRelaxationResult(
        feasible=feasible, guess=float(guess), fractional_makespan=fractional,
        x=np.maximum(0.0, gather(model.x_col, sol.values)),
        y=np.maximum(0.0, gather(model.y_col, sol.values)))
