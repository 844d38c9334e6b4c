"""The LP relaxation of SetCover.

Used for integrality-gap measurements: Corollary 3.4 notes that the
``Ω(log n + log m)`` integrality gap of ILP-UM is inherited from the
classical SetCover gap, so experiment E4 reports both side by side.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.lp import SolutionStatus, solve
from repro.setcover.instance import SetCoverInstance

__all__ = ["lp_cover_value", "ilp_cover_value"]


def _cover_arrays(instance: SetCoverInstance) -> tuple:
    """``min Σ_s x_s`` s.t. every element is covered, ``0 ≤ x ≤ 1``, as solver arrays."""
    covers = sparse.csr_matrix(instance.membership_matrix().T, dtype=float)
    return (np.ones(instance.num_subsets), -covers, -np.ones(instance.universe_size),
            None, None, 0.0, 1.0)


def lp_cover_value(instance: SetCoverInstance) -> float:
    """Optimal value of the fractional SetCover LP."""
    if instance.universe_size == 0:
        return 0.0
    sol = solve(*_cover_arrays(instance))
    if sol.status is not SolutionStatus.OPTIMAL:
        raise RuntimeError(f"SetCover LP failed: {sol.message}")
    return float(sol.objective)


def ilp_cover_value(instance: SetCoverInstance, *, time_limit: float | None = 30.0) -> int:
    """Optimal integral cover size via the MILP backend (small/medium instances)."""
    if instance.universe_size == 0:
        return 0
    sol = solve(*_cover_arrays(instance), integrality=np.ones(instance.num_subsets, dtype=int),
                time_limit=time_limit)
    if not sol.has_solution:
        raise RuntimeError(f"SetCover ILP failed: {sol.message}")
    return int(round(sol.objective))
