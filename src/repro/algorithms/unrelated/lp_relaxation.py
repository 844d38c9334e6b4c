"""The linear relaxation of ILP-UM for a fixed makespan guess ``T``.

This is the fractional program the randomized rounding of Section 3.1
rounds: constraints (1)–(5) of ILP-UM with the integrality constraint (3)
replaced by ``0 ≤ x_ij, y_ik ≤ 1``.  The feasibility question "is there a
fractional solution for guess ``T``?" is answered by minimising the maximum
machine load under constraints (2), (4), (5) and checking whether the
optimum is at most ``T``.

A dual search asks this question at many guesses but visits few column
sets: :func:`memoized_relaxation` solves one LP per column set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.ilp_um import build_ilp_um, column_set_key, gather
from repro.core.instance import Instance
from repro.lp import SolutionStatus

__all__ = ["LPRelaxationResult", "memoized_relaxation", "solve_ilp_um_relaxation"]

#: Slack of constraint (5) and of the feasibility test, absorbing LP round-off.
_TOLERANCE = 1e-6

#: ``(fractional_makespan, x, y)`` of one solve, ``None`` for an infeasible LP.
_Solved = Optional[Tuple[float, np.ndarray, np.ndarray]]


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
        pairs excluded by constraint (5) / ineligibility).  Read-only when
        the LP was solved: results of one column set share it.
    y:
        ``(m, K)`` array of fractional setup values ``y_ik``, read-only
        like ``x``.
    """

    feasible: bool
    guess: float
    fractional_makespan: float
    x: np.ndarray
    y: np.ndarray

    def job_distribution(self, job: int) -> np.ndarray:
        """The fractional distribution of ``job`` over machines (sums to 1 when feasible)."""
        return self.x[:, job]


def _solve(instance: Instance, guess: float, tolerance: float) -> _Solved:
    """Solve the relaxation for ``guess``; its ``x``/``y`` are made read-only."""
    # Constraint (2) needs a column for every job: a job that lost all its
    # machines to the filtering makes the guess infeasible outright.
    model = build_ilp_um(instance, guess, tolerance=tolerance)
    if model is None:
        return None
    sol = model.solve()
    if sol.status is not SolutionStatus.OPTIMAL:
        return None
    x = np.maximum(0.0, gather(model.x_col, sol.values))
    y = np.maximum(0.0, gather(model.y_col, sol.values))
    x.flags.writeable = False
    y.flags.writeable = False
    return float(sol.objective), x, y


def _result(instance: Instance, guess: float, tolerance: float,
            solved: _Solved) -> LPRelaxationResult:
    """The relaxation's answer for ``guess`` from the solve of its column set."""
    inst = instance
    if solved is None:
        return LPRelaxationResult(
            feasible=False, guess=float(guess), fractional_makespan=float("inf"),
            x=np.zeros((inst.num_machines, inst.num_jobs)),
            y=np.zeros((inst.num_machines, inst.num_classes)))
    fractional, x, y = solved
    feasible = fractional <= guess * (1.0 + 1e-9) + tolerance
    return LPRelaxationResult(feasible=feasible, guess=float(guess),
                              fractional_makespan=fractional, x=x, y=y)


def solve_ilp_um_relaxation(instance: Instance, guess: float,
                            *, tolerance: float = _TOLERANCE) -> LPRelaxationResult:
    """Solve the LP relaxation of ILP-UM for makespan guess ``guess``.

    The LP minimises an auxiliary variable ``Z`` bounding every machine load
    (so the call both answers feasibility for ``guess`` and returns the best
    fractional load achievable under the guess-dependent eligibility
    filtering of constraint (5)).
    """
    return _result(instance, guess, tolerance, _solve(instance, guess, tolerance))


def memoized_relaxation(instance: Instance) -> Callable[[float], LPRelaxationResult]:
    """``solve_ilp_um_relaxation`` for one instance, one LP per column set.

    The guess enters ILP-UM only through constraint (5)'s column set (``T``
    is a minimised column), and guesses with equal
    :func:`~repro.core.ilp_um.column_set_key` build identical arrays, so the
    solver would get the same input and return the same solution.  The
    returned function therefore solves the first guess of each column set
    and reuses that solve for the others; ``guess`` and ``feasible`` are
    still set per call.  Its results equal fresh ones and share their
    read-only ``x``/``y``.  The memo lives as long as the function does.
    """
    key = column_set_key(instance, tolerance=_TOLERANCE)
    solved: Dict[int, _Solved] = {}

    def relaxation(guess: float) -> LPRelaxationResult:
        k = key(guess)
        if k not in solved:
            solved[k] = _solve(instance, guess, _TOLERANCE)
        return _result(instance, guess, _TOLERANCE, solved[k])

    return relaxation
