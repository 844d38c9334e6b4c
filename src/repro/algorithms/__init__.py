"""Scheduling algorithms.

Layout (one module or subpackage per paper result):

* :mod:`repro.algorithms.lpt` — Lemma 2.1: LPT with setup placeholders on
  uniformly related machines (4.74-approximation).
* :mod:`repro.algorithms.ptas` — Section 2: the PTAS for uniformly related
  machines (dual approximation + simplification + speed-group DP).
* :mod:`repro.algorithms.unrelated` — Section 3.1: LP relaxation of ILP-UM
  and the randomized-rounding ``O(log n + log m)``-approximation.
* :mod:`repro.algorithms.restricted` — Section 3.3: the 2- and
  3-approximations for the two class-uniform special cases.
* :mod:`repro.algorithms.list_scheduling` — class-aware and class-oblivious
  greedy baselines used for comparison (experiment E7).
* :mod:`repro.algorithms.exact` — exact optima via the MILP backend and a
  brute-force search for tiny instances (used to measure ratios).

Every algorithm also registers itself with :mod:`repro.runtime.registry`
(capability-based lookup + batch execution); prefer dispatching through
:class:`repro.runtime.BatchRunner` when running more than one algorithm or
instance.
"""

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.list_scheduling import (
    class_aware_list_schedule,
    class_oblivious_list_schedule,
    best_machine_schedule,
)
from repro.algorithms.lpt import lpt_uniform_with_setups, lpt_without_setups
from repro.algorithms.exact import brute_force_optimal, milp_optimal

__all__ = [
    "AlgorithmResult",
    "class_aware_list_schedule",
    "class_oblivious_list_schedule",
    "best_machine_schedule",
    "lpt_uniform_with_setups",
    "lpt_without_setups",
    "brute_force_optimal",
    "milp_optimal",
]
