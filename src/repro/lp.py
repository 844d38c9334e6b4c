"""Array-form LP/MILP solves over SciPy's HiGHS solvers.

The paper's algorithms need three solver capabilities that a library such as
PuLP or Gurobi would normally provide:

1. solving large *linear relaxations* (ILP-UM of Section 3, LP-RelaxedRA of
   Section 3.3) — handled by :func:`scipy.optimize.linprog`;
2. obtaining *extreme-point (basic) solutions*, which the pseudo-forest
   rounding of Section 3.3 relies on structurally — handled by the HiGHS
   dual-simplex backend;
3. solving small *integer programs* exactly, to measure approximation ratios
   against true optima — handled by :func:`scipy.optimize.milp`.

Callers build their programs directly as NumPy vectors and ``scipy.sparse``
matrices and pass them to :func:`solve`.  The solvers are looked up on the
``scipy.optimize`` module at call time, so wrappers installed there (for
example a tracer counting solves) see every call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy import optimize

__all__ = ["Solution", "SolutionStatus", "SolverError", "solve"]


class SolverError(RuntimeError):
    """Raised when the solver stops without a proven outcome or a solution."""


class SolutionStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    #: A feasible solution found before the solver hit its time/iteration
    #: limit.  The objective is an upper bound on the true optimum (for
    #: minimisation), within the solver's reported gap, but optimality was
    #: *not* proven.
    INCUMBENT = "incumbent"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class Solution:
    """A (possibly infeasible) result of :func:`solve`.

    Attributes
    ----------
    status:
        :class:`SolutionStatus` of the solve.
    objective:
        ``c @ values`` (``nan`` unless a solution is available).
    values:
        Dense vector of column values.
    is_mip:
        Whether integrality was enforced.
    message:
        Raw solver message, useful when status is not ``OPTIMAL``.
    """

    status: SolutionStatus
    objective: float
    values: np.ndarray
    is_mip: bool = False
    message: str = ""
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        """True iff the solver proved optimality."""
        return self.status is SolutionStatus.OPTIMAL

    @property
    def has_solution(self) -> bool:
        """True iff a feasible assignment is available (optimal or incumbent)."""
        return self.status in (SolutionStatus.OPTIMAL, SolutionStatus.INCUMBENT)


#: SciPy ``linprog``/``milp`` status codes with a proven outcome.  Status 1
#: (time or iteration limit) counts only for a MIP holding an incumbent.
_STATUS = {0: SolutionStatus.OPTIMAL, 2: SolutionStatus.INFEASIBLE,
           3: SolutionStatus.UNBOUNDED}


def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, lower=0.0, upper=np.inf,
          *, integrality: Optional[np.ndarray] = None, vertex: bool = False,
          time_limit: Optional[float] = None, mip_rel_gap: float = 0.0) -> Solution:
    """Minimise ``c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq``, ``lower <= x <= upper``.

    Parameters
    ----------
    c, A_ub, b_ub, A_eq, b_eq:
        The program; either matrix may be ``None`` (no such rows).
    lower, upper:
        Column bounds, scalars or one entry per column (``inf`` for none).
    integrality:
        ``None`` solves the LP.  Otherwise one flag per column (1 =
        integral) and the program is solved as a MIP.
    vertex:
        Request an extreme-point (basic) solution from the dual simplex.
        Required by the pseudo-forest rounding of Section 3.3, whose
        correctness depends on the support graph of the LP solution being a
        pseudo-forest.
    time_limit:
        Optional wall-clock limit in seconds (MIP solves only).
    mip_rel_gap:
        Relative optimality gap accepted for MIP solves.

    Raises
    ------
    SolverError
        When the solver stops without a proof (optimal, infeasible or
        unbounded) and without an incumbent, e.g. at a time limit.
    """
    c = np.asarray(c, dtype=float)
    is_mip = integrality is not None
    if c.size == 0:
        return Solution(SolutionStatus.OPTIMAL, 0.0, np.zeros(0), is_mip=is_mip)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), c.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), c.shape)
    meta: Dict[str, object] = {}
    if is_mip:
        constraints = []
        if A_ub is not None:
            constraints.append(optimize.LinearConstraint(A_ub, -np.inf, b_ub))
        if A_eq is not None:
            constraints.append(optimize.LinearConstraint(A_eq, b_eq, b_eq))
        options: Dict[str, object] = {"mip_rel_gap": mip_rel_gap}
        if time_limit is not None:
            options["time_limit"] = time_limit
        result = optimize.milp(c, constraints=constraints or None,
                               integrality=integrality,
                               bounds=optimize.Bounds(lower, upper),
                               options=options)
        meta["mip_gap"] = getattr(result, "mip_gap", None)
    else:
        result = optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                  bounds=np.column_stack((lower, upper)),
                                  method="highs-ds" if vertex else "highs")
    if is_mip and result.status == 1 and result.x is not None:
        status = SolutionStatus.INCUMBENT
    elif result.status in _STATUS:
        status = _STATUS[result.status]
    else:
        raise SolverError(f"{'milp' if is_mip else 'linprog'} stopped with "
                          f"status {result.status}: {result.message}")
    values = np.full(c.size, np.nan) if result.x is None else np.asarray(result.x, dtype=float)
    objective = float("nan")
    if status in (SolutionStatus.OPTIMAL, SolutionStatus.INCUMBENT):
        # Summed in column order, term by term, so the value does not
        # depend on NumPy's pairwise reduction.
        objective = 0.0
        for col in np.flatnonzero(c):
            objective += float(c[col]) * float(values[col])
    return Solution(status, objective, values, is_mip=is_mip,
                    message=str(result.message), meta=meta)
