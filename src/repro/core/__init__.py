"""Core data model: scheduling instances, schedules, bounds and dual search.

Everything else in the library is phrased in terms of the two central
classes defined here:

* :class:`repro.core.instance.Instance` — a problem instance (jobs with
  sizes, classes with setup times, machines in one of the four
  environments of the paper);
* :class:`repro.core.schedule.Schedule` — an assignment of jobs to
  machines, with load/makespan accounting that charges one setup per
  (machine, class) pair actually used, exactly as in Section 1.1.

:mod:`repro.core.bounds` provides valid lower and upper bounds on the
optimal makespan and :mod:`repro.core.dual` the Hochbaum–Shmoys dual
approximation framework (binary search over makespan guesses) that most of
the paper's algorithms plug into.  :mod:`repro.core.ilp_um` builds ILP-UM
(Section 3) as solver arrays for the LP relaxation, the exact MILP and the
LP lower bound.
"""

from repro.core.instance import Instance, MachineEnvironment
from repro.core.schedule import Schedule
from repro.core.bounds import (
    BoundReport,
    greedy_upper_bound,
    lower_bound,
    lp_lower_bound,
    makespan_bounds,
)
from repro.core.dual import DualSearchResult, dual_approximation_search

__all__ = [
    "Instance",
    "MachineEnvironment",
    "Schedule",
    "BoundReport",
    "lower_bound",
    "lp_lower_bound",
    "greedy_upper_bound",
    "makespan_bounds",
    "DualSearchResult",
    "dual_approximation_search",
]
