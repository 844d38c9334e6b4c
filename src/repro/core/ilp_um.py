"""ILP-UM (constraints (1)–(5) of Section 3) as solver arrays.

One builder serves the LP relaxation the randomized rounding solves per
makespan guess, the exact MILP and the LP lower bound.  Columns are the
makespan ``T`` (column 0) followed, machine by machine, by the setup
variables ``y_ik`` and then the assignment variables ``x_ij`` of that
machine.  Only eligible pairs get a column: ``x_ij`` needs a finite
``p_ij`` and a ``y_{i,k_j}`` column; with a guess, constraint (5) also drops
every ``x_ij`` with ``p_ij`` and every ``y_ik`` with ``s_ik`` above it.

Rows: the load rows (1) ``Σ_j p_ij x_ij + Σ_k s_ik y_ik - T ≤ 0`` of every
machine with a column, then the coupling rows (4) ``x_ij - y_{i,k_j} ≤ 0``
in column order; equality rows (2) ``Σ_i x_ij = 1`` per job.

``T`` is a minimised column, so a guess enters the program only through
constraint (5)'s column set.  :func:`column_set_key` names that set, so a
caller solving many guesses can solve each distinct program once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import sparse

from repro.core.instance import Instance
from repro.lp import Solution, solve

__all__ = ["ILPUM", "build_ilp_um", "column_set_key", "gather"]


@dataclass(frozen=True)
class ILPUM:
    """ILP-UM for one instance (and guess) with ``T`` minimised.

    ``x_col[i, j]`` / ``y_col[i, k]`` give the column of ``x_ij`` /
    ``y_ik``, or ``-1`` where the pair has no variable.
    """

    c: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    upper: np.ndarray
    x_col: np.ndarray
    y_col: np.ndarray

    def solve(self, *, integral: bool = False, time_limit: Optional[float] = None,
              mip_rel_gap: float = 0.0) -> Solution:
        """Solve the LP relaxation, or with ``integral`` the ILP (``T`` stays continuous)."""
        integrality = None
        if integral:
            integrality = np.ones(self.c.size, dtype=int)
            integrality[0] = 0
        return solve(self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq, 0.0, self.upper,
                     integrality=integrality, time_limit=time_limit,
                     mip_rel_gap=mip_rel_gap)


def build_ilp_um(instance: Instance, guess: Optional[float] = None, *,
                 tolerance: float = 0.0) -> Optional[ILPUM]:
    """Build ILP-UM, filtered by constraint (5) for ``guess`` when one is given.

    A pair survives the filter when its time is at most ``guess +
    tolerance``.  Returns ``None`` when some job is left without a column,
    i.e. the program is infeasible outright.
    """
    inst = instance
    p, s, classes = inst.processing, inst.setups, inst.job_classes
    num_jobs, num_classes = inst.num_jobs, inst.num_classes
    limit = np.inf if guess is None else guess + tolerance
    y_mask = np.isfinite(s) & (s <= limit)
    x_mask = np.isfinite(p) & (p <= limit) & y_mask[:, classes]
    if not x_mask.any(axis=0).all():
        return None

    mask = np.concatenate([y_mask, x_mask], axis=1)
    cols = np.full(mask.shape, -1)
    num_cols = 1 + np.count_nonzero(mask)
    cols[mask] = np.arange(1, num_cols)
    y_col, x_col = cols[:, :num_classes], cols[:, num_classes:]
    xi, xj = np.nonzero(x_mask)
    yi, yk = np.nonzero(y_mask)
    x_cols, y_cols = x_col[xi, xj], y_col[yi, yk]

    # (1) one load row per machine with a column, then (4) one coupling row
    # per x column.
    loaded = np.flatnonzero(mask.any(axis=1))
    load_row = np.full(inst.num_machines, -1)
    load_row[loaded] = np.arange(loaded.size)
    couple_rows = loaded.size + np.arange(x_cols.size)
    a_ub = sparse.csr_matrix((
        np.concatenate([p[xi, xj], s[yi, yk], np.full(loaded.size, -1.0),
                        np.ones(x_cols.size), np.full(x_cols.size, -1.0)]),
        (np.concatenate([load_row[xi], load_row[yi], np.arange(loaded.size),
                         couple_rows, couple_rows]),
         np.concatenate([x_cols, y_cols, np.zeros(loaded.size, dtype=int),
                         x_cols, y_col[xi, classes[xj]]]))),
        shape=(loaded.size + x_cols.size, num_cols))
    # (2) every job assigned exactly once.
    a_eq = sparse.csr_matrix((np.ones(x_cols.size), (xj, x_cols)),
                             shape=(num_jobs, num_cols))

    c = np.zeros(num_cols)
    c[0] = 1.0
    upper = np.ones(num_cols)
    upper[0] = np.inf
    return ILPUM(c=c, a_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), a_eq=a_eq,
                 b_eq=np.ones(num_jobs), upper=upper, x_col=x_col, y_col=y_col)


def column_set_key(instance: Instance, *, tolerance: float = 0.0) -> Callable[[float], int]:
    """A function naming the column set :func:`build_ilp_um` keeps for a guess.

    The key of ``guess`` is the number of distinct finite ``p_ij`` and
    ``s_ik`` at most ``guess + tolerance``, the limit constraint (5) filters
    by.  Two guesses with the same key keep the same pairs, so
    ``build_ilp_um`` returns the same arrays (``None`` for both, or a program
    the solver cannot tell apart).  The breakpoints are sorted once here.
    """
    values = np.concatenate([instance.processing.ravel(), instance.setups.ravel()])
    breakpoints = np.unique(values[np.isfinite(values)])

    def key(guess: float) -> int:
        return int(np.searchsorted(breakpoints, guess + tolerance, side="right"))

    return key


def gather(cols: np.ndarray, values: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """``values`` at the columns ``cols`` (``x_col`` or ``y_col``), ``fill`` where ``-1``."""
    return np.where(cols >= 0, values[cols], fill)
