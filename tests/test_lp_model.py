"""Tests for the array-form LP/MILP solve (repro.lp)."""

import numpy as np
import pytest
from scipy import sparse

from repro.lp import SolutionStatus, SolverError, solve


class TestModelLP:
    def test_simple_minimisation(self):
        # min x + y  s.t.  x + 2y >= 1,  0 <= x <= 1,  y >= 0
        sol = solve([1.0, 1.0], [[-1.0, -2.0]], [-1.0], lower=0.0, upper=[1.0, np.inf])
        assert sol.is_optimal
        assert sol.objective == pytest.approx(0.5, abs=1e-6)

    def test_maximisation(self):
        # Maximise 2x + y by minimising its negation.
        sol = solve([-2.0, -1.0], [[1.0, 1.0]], [4.0], upper=[2.0, 3.0])
        assert sol.is_optimal
        assert -sol.objective == pytest.approx(6.0, abs=1e-6)

    def test_equality_constraint(self):
        sol = solve([1.0, 0.0], A_eq=sparse.csr_matrix([[1.0, 1.0]]), b_eq=[2.0])
        assert sol.is_optimal
        assert sol.values[0] == pytest.approx(0.0, abs=1e-6)
        assert sol.values[1] == pytest.approx(2.0, abs=1e-6)

    def test_infeasible(self):
        sol = solve([1.0], [[-1.0]], [-2.0], upper=1.0)
        assert sol.status is SolutionStatus.INFEASIBLE
        assert not sol.is_optimal
        assert not sol.has_solution

    def test_unbounded(self):
        sol = solve([-1.0])
        assert sol.status is SolutionStatus.UNBOUNDED
        assert not sol.is_optimal

    def test_empty_model(self):
        sol = solve(np.zeros(0))
        assert sol.is_optimal
        assert sol.objective == 0.0
        assert solve(np.zeros(0), integrality=np.zeros(0, dtype=int)).is_optimal

    def test_vertex_solution_is_basic(self):
        # A degenerate transportation-style LP: the vertex solution should
        # have at most (#rows) non-zero variables.
        a_eq = sparse.csr_matrix(np.kron(np.eye(2), np.ones(3)))
        sol = solve(np.arange(1.0, 7.0), A_eq=a_eq, b_eq=np.ones(2), upper=1.0,
                    vertex=True)
        assert sol.is_optimal
        support = np.sum(sol.values > 1e-9)
        assert support <= a_eq.shape[0]

    def test_variable_bound_validation(self):
        # Crossed column bounds reach the solver and make the program infeasible.
        for integrality in (None, np.ones(1, dtype=int)):
            sol = solve([1.0], lower=2.0, upper=1.0, integrality=integrality)
            assert sol.status is SolutionStatus.INFEASIBLE


class TestModelMIP:
    def test_integer_knapsack(self):
        # max 4a + 5b + 7c  s.t.  3a + 4b + 5c <= 7,  a, b, c in {0, 1}
        sol = solve([-4.0, -5.0, -7.0], [[3.0, 4.0, 5.0]], [7.0], upper=1.0,
                    integrality=np.ones(3, dtype=int))
        assert sol.is_optimal
        assert sol.is_mip
        assert -sol.objective == pytest.approx(9.0)
        assert np.allclose(sol.values, np.round(sol.values), atol=1e-6)

    def test_mip_vs_lp_relaxation_gap(self):
        arrays = ([-1.0, -1.0], [[1.0, 1.0]], [1.5], None, None, 0.0, 1.0)
        lp = solve(*arrays)
        mip = solve(*arrays, integrality=np.ones(2, dtype=int))
        assert -lp.objective == pytest.approx(1.5)
        assert -mip.objective == pytest.approx(1.0)

    def test_mip_infeasible(self):
        sol = solve([1.0], A_eq=[[2.0]], b_eq=[1.0], upper=1.0,
                    integrality=np.ones(1, dtype=int))
        assert sol.status is SolutionStatus.INFEASIBLE

    def test_time_limit_without_incumbent_raises(self):
        # A 0/1 equality knapsack with a planted solution is feasible, but no
        # incumbent exists within a microsecond: that is no proof of
        # infeasibility, so the solve must not report one.
        rng = np.random.default_rng(0)
        weights = rng.integers(1, 1000, size=(2, 80)).astype(float)
        planted = rng.random(80) < 0.5
        with pytest.raises(SolverError):
            solve(np.zeros(80), A_eq=weights, b_eq=weights @ planted, upper=1.0,
                  integrality=np.ones(80, dtype=int), time_limit=1e-6)
