"""Tests for the Section 3.1 LP relaxation and randomized rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import milp_optimal
from repro.algorithms.unrelated import (
    randomized_rounding_approximation,
    randomized_rounding_decision,
    solve_ilp_um_relaxation,
    theoretical_ratio_bound,
)
from repro.algorithms.unrelated.lp_relaxation import memoized_relaxation
from repro.algorithms.unrelated.lp_rounding import RoundingStats
from repro.core import ilp_um
from repro.core.bounds import lp_lower_bound, makespan_bounds
from repro.core.dual import dual_approximation_search
from repro.core.ilp_um import build_ilp_um, column_set_key
from repro.generators import unrelated_instance


class TestLPRelaxation:
    def test_feasible_at_optimum(self):
        inst = unrelated_instance(12, 3, 3, seed=1)
        opt = milp_optimal(inst, time_limit=30)
        relax = solve_ilp_um_relaxation(inst, opt.makespan)
        assert relax.feasible
        assert relax.fractional_makespan <= opt.makespan + 1e-6

    def test_infeasible_below_lp_bound(self):
        inst = unrelated_instance(12, 3, 3, seed=2)
        lb = lp_lower_bound(inst)
        relax = solve_ilp_um_relaxation(inst, 0.5 * lb)
        assert not relax.feasible

    def test_assignment_constraint_satisfied(self):
        inst = unrelated_instance(10, 3, 3, seed=3)
        opt = milp_optimal(inst, time_limit=30)
        relax = solve_ilp_um_relaxation(inst, opt.makespan * 1.1)
        sums = relax.x.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_setup_coupling_satisfied(self):
        inst = unrelated_instance(10, 3, 3, seed=4)
        opt = milp_optimal(inst, time_limit=30)
        relax = solve_ilp_um_relaxation(inst, opt.makespan * 1.1)
        for i in range(inst.num_machines):
            for j in range(inst.num_jobs):
                k = inst.job_class(j)
                assert relax.x[i, j] <= relax.y[i, k] + 1e-6

    def test_constraint5_filters_large_jobs(self):
        inst = unrelated_instance(8, 3, 2, seed=5, processing_range=(10.0, 100.0),
                                  setup_range=(1.0, 5.0))
        # The largest per-job fastest time (every setup lies below it): every
        # job keeps a column, yet some pairs are filtered, so the filtered LP
        # is built and solved.
        guess = float(np.max(np.min(inst.processing, axis=0)))
        tolerance = 1e-6
        filtered = inst.processing > guess + tolerance
        assert filtered.any()
        relax = solve_ilp_um_relaxation(inst, guess, tolerance=tolerance)
        assert np.isfinite(relax.fractional_makespan)
        assert np.all(relax.x[filtered] == 0.0)

    def test_loads_within_guess_when_feasible(self):
        inst = unrelated_instance(12, 4, 3, seed=6)
        opt = milp_optimal(inst, time_limit=30)
        relax = solve_ilp_um_relaxation(inst, opt.makespan)
        loads = (relax.x * np.where(np.isfinite(inst.processing), inst.processing, 0.0)).sum(axis=1)
        loads += (relax.y * np.where(np.isfinite(inst.setups), inst.setups, 0.0)).sum(axis=1)
        assert np.all(loads <= opt.makespan * (1 + 1e-6) + 1e-6)

    def test_job_distribution_accessor(self):
        inst = unrelated_instance(6, 3, 2, seed=7)
        opt = milp_optimal(inst, time_limit=20)
        relax = solve_ilp_um_relaxation(inst, opt.makespan)
        dist = relax.job_distribution(0)
        assert dist.shape == (3,)
        assert dist.sum() == pytest.approx(1.0, abs=1e-6)


class TestMemoizedRelaxation:
    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        real = ilp_um.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ilp_um, "solve", counting)
        return calls

    def test_equals_fresh_solves_with_one_solve_per_column_set(self, monkeypatch):
        inst = unrelated_instance(12, 6, 3, seed=11)
        search = dual_approximation_search(
            inst, lambda g: randomized_rounding_decision(inst, g, seed=0), precision=0.05)
        guesses = [guess for guess, _, _ in search.history]
        # Pairs on either side of breakpoints inside the bracket.
        key = column_set_key(inst, tolerance=1e-6)
        values = np.unique(np.concatenate([inst.processing.ravel(), inst.setups.ravel()]))
        inside = values[(values > search.bounds.lower) & (values < search.bounds.upper)]
        assert inside.size >= 2
        for b in inside[:3]:
            below, above = b * (1 - 1e-4), b * (1 + 1e-4)
            assert key(below) < key(above)
            guesses += [below, above, b]
        guesses += guesses[:3]  # repeats of early guesses come from the memo
        guesses += [0.1 * search.bounds.lower] * 2  # infeasible outright
        calls = self._count_solves(monkeypatch)
        relaxation = memoized_relaxation(inst)
        memoized = [relaxation(g) for g in guesses]
        built = {key(g) for g in guesses if build_ilp_um(inst, g, tolerance=1e-6) is not None}
        assert len(calls) == len(built)
        assert len(built) < len({key(g) for g in guesses}) < len(guesses)
        for guess, got in zip(guesses, memoized):
            fresh = solve_ilp_um_relaxation(inst, guess)
            assert got.guess == fresh.guess == float(guess)
            assert got.feasible == fresh.feasible
            assert got.fractional_makespan == fresh.fractional_makespan
            assert np.array_equal(got.x, fresh.x)
            assert np.array_equal(got.y, fresh.y)

    def test_constant_column_set_solves_one_lp(self, monkeypatch):
        # Every p_ij and s_ik lies below the lower bound, so every guess of
        # the search keeps all pairs.
        inst = unrelated_instance(30, 2, 2, seed=12, processing_range=(1.0, 3.0),
                                  setup_range=(1.0, 2.0))
        calls = self._count_solves(monkeypatch)
        result = randomized_rounding_approximation(inst, seed=0)
        assert result.meta["search_iterations"] > 1
        assert len(calls) == 1

    def test_shared_arrays_are_read_only(self):
        inst = unrelated_instance(8, 3, 2, seed=13)
        relaxation = memoized_relaxation(inst)
        guess = makespan_bounds(inst).upper
        first, second = relaxation(guess), relaxation(guess)
        assert first.feasible and second.x is first.x and second.y is first.y
        for relax in (first, second, solve_ilp_um_relaxation(inst, guess)):
            for values in (relax.x, relax.y):
                with pytest.raises(ValueError):
                    values[0, 0] = 1.0


class TestTheoreticalBound:
    def test_grows_logarithmically(self):
        small = theoretical_ratio_bound(10, 10)
        large = theoretical_ratio_bound(1000, 1000)
        assert large > small
        assert large < small * 10  # logarithmic, not linear

    def test_matches_formula(self):
        import math
        n, m, c = 16, 8, 2.0
        delta = 3.0 * (math.log2(n + m) / (c * math.log2(n)) + 1.0)
        assert theoretical_ratio_bound(n, m, c) == pytest.approx((1 + delta) * c * math.log2(n))

    def test_handles_tiny_inputs(self):
        assert np.isfinite(theoretical_ratio_bound(1, 1))


class TestRandomizedRoundingDecision:
    def test_rejects_infeasible_guess(self):
        inst = unrelated_instance(10, 3, 3, seed=8)
        lb = lp_lower_bound(inst)
        assert randomized_rounding_decision(inst, 0.4 * lb, seed=0) is None

    def test_accepts_feasible_guess_with_complete_schedule(self):
        inst = unrelated_instance(10, 3, 3, seed=9)
        opt = milp_optimal(inst, time_limit=30)
        schedule = randomized_rounding_decision(inst, opt.makespan, seed=1)
        assert schedule is not None
        assert schedule.is_complete
        assert schedule.validate() == []

    def test_stats_recorded(self):
        inst = unrelated_instance(10, 3, 3, seed=10)
        opt = milp_optimal(inst, time_limit=30)
        stats = []
        schedule = randomized_rounding_decision(inst, opt.makespan, seed=2, stats_out=stats)
        assert schedule is not None
        assert len(stats) == 1
        assert isinstance(stats[0], RoundingStats)
        assert stats[0].iterations_used >= 1
        assert stats[0].makespan == pytest.approx(schedule.makespan())

    def test_reproducible_with_same_seed(self):
        inst = unrelated_instance(10, 3, 3, seed=11)
        opt = milp_optimal(inst, time_limit=30)
        a = randomized_rounding_decision(inst, opt.makespan, seed=5)
        b = randomized_rounding_decision(inst, opt.makespan, seed=5)
        assert np.array_equal(a.assignment, b.assignment)

    def test_different_seeds_can_differ(self):
        inst = unrelated_instance(20, 4, 4, seed=12)
        opt = milp_optimal(inst, time_limit=30)
        schedules = {tuple(randomized_rounding_decision(inst, opt.makespan, seed=s).assignment)
                     for s in range(5)}
        assert len(schedules) >= 2


class TestRandomizedRoundingApproximation:
    def test_end_to_end_feasible(self, small_unrelated):
        result = randomized_rounding_approximation(small_unrelated, seed=3)
        assert result.schedule.validate() == []
        assert result.guarantee is not None

    def test_within_theoretical_bound(self):
        """The measured ratio respects the O(log n + log m) bound of Theorem 3.3."""
        for seed in range(4):
            inst = unrelated_instance(14, 4, 4, seed=seed)
            opt = milp_optimal(inst, time_limit=30)
            result = randomized_rounding_approximation(inst, seed=seed)
            bound = theoretical_ratio_bound(inst.num_jobs, inst.num_machines)
            assert result.makespan <= bound * opt.makespan * (1 + 1e-6)

    def test_typically_much_better_than_bound(self):
        inst = unrelated_instance(20, 4, 5, seed=13)
        opt = milp_optimal(inst, time_limit=30)
        result = randomized_rounding_approximation(inst, seed=13, restarts=3)
        assert result.makespan <= 3.0 * opt.makespan

    def test_metadata_contains_search_info(self, small_unrelated):
        result = randomized_rounding_approximation(small_unrelated, seed=4)
        assert "accepted_guess" in result.meta
        assert "rounding_stats" in result.meta
        assert result.meta["search_iterations"] >= 1

    def test_restarts_never_hurt(self):
        inst = unrelated_instance(16, 4, 4, seed=14)
        single = randomized_rounding_approximation(inst, seed=0, restarts=1)
        multi = randomized_rounding_approximation(inst, seed=0, restarts=4)
        # Not guaranteed monotone (different random streams), but both feasible
        # and within a factor 2 of each other on benign instances.
        assert single.schedule.validate() == []
        assert multi.schedule.validate() == []
        assert multi.makespan <= 2.0 * single.makespan

    def test_handles_restricted_assignment_style_matrix(self):
        inst = unrelated_instance(12, 4, 3, seed=15, ineligible_fraction=0.3)
        result = randomized_rounding_approximation(inst, seed=15)
        assert result.schedule.validate() == []

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_property_schedule_always_valid(self, seed):
        inst = unrelated_instance(10, 3, 3, seed=seed)
        result = randomized_rounding_approximation(inst, seed=seed)
        assert result.schedule.validate() == []
