"""Pinned outputs of every LP-based code path.

``golden/lp_outputs.json`` records what the LP-backed algorithms, the exact
MILP and the LP bounds return on fixed inputs.  The paper algorithms and the
MILP are compared exactly (makespan ``repr`` plus the assignment); the LP
values, whose last digits depend on the solver's column order, within a
relative ``1e-12``.  The file was written by :func:`compute_outputs` on
the code before the LP layer moved to array builders, so the test checks
that the move changed no output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.exact import milp_optimal
from repro.api import AlgorithmSweep, ScalePreset, ScenarioSpec
from repro.core.bounds import lp_lower_bound
from repro.runtime.registry import get_algorithm
from repro.setcover import integrality_gap_instance
from repro.setcover.lp import ilp_cover_value, lp_cover_value

GOLDEN = Path(__file__).parent / "golden" / "lp_outputs.json"

#: Each LP suite with the paper algorithm it was built for, seeded per point.
SUITES = (
    ("e3_randomized_rounding",
     AlgorithmSweep.make("randomized-rounding", {"restarts": 1},
                         seed_kwarg="seed")),
    ("e5_class_uniform_restrictions",
     AlgorithmSweep.make("class-uniform-restrictions-2approx")),
    ("e6_class_uniform_ptimes",
     AlgorithmSweep.make("class-uniform-ptimes-3approx")),
)
MILP_FIXTURES = ("tiny_uniform", "tiny_unrelated", "small_unrelated")
GAP_QS = (3, 4, 5, 6)
#: The exact cover of the ``q = 6`` instance alone costs over a second.
ILP_QS = (3, 4, 5)
LP_REL = 1e-12


def _digest(assignment) -> str:
    data = np.asarray(assignment, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()


def compute_outputs(fixtures) -> dict:
    """Every pinned output; ``fixtures`` maps a conftest name to its instance."""
    exact, close = {}, {}
    for suite, sweep in SUITES:
        spec = ScenarioSpec(name=f"golden-{suite}", suite=suite,
                            replications=1, algorithms=(sweep,),
                            scales={"all": ScalePreset()})
        compiled = spec.compile("all")
        for index, task in enumerate(compiled.tasks):
            result = get_algorithm(task.algorithm).run(task.instance,
                                                       **task.kwargs_dict())
            exact[f"{suite}/{index}"] = {
                "makespan": repr(result.makespan),
                "assignment_sha256": _digest(result.schedule.assignment),
            }
            close[f"lp_lower_bound/{suite}/{index}"] = lp_lower_bound(
                task.instance)
    for name in MILP_FIXTURES:
        result = milp_optimal(fixtures[name])
        exact[f"milp_optimal/{name}"] = {
            "makespan": repr(result.makespan),
            "assignment": [int(i) for i in result.schedule.assignment],
        }
        close[f"lp_lower_bound/{name}"] = lp_lower_bound(fixtures[name])
    for q in GAP_QS:
        cover = integrality_gap_instance(q)
        if q in ILP_QS:
            exact[f"ilp_cover_value/{q}"] = ilp_cover_value(cover)
        close[f"lp_cover_value/{q}"] = lp_cover_value(cover)
    return {"exact": exact, "close": close}


@pytest.fixture
def outputs(request) -> dict:
    return compute_outputs({name: request.getfixturevalue(name)
                            for name in MILP_FIXTURES})


def test_lp_outputs_match_golden(outputs):
    golden = json.loads(GOLDEN.read_text())
    assert outputs["exact"] == golden["exact"]
    assert sorted(outputs["close"]) == sorted(golden["close"])
    for key, value in golden["close"].items():
        assert outputs["close"][key] == pytest.approx(value, rel=LP_REL, abs=0.0), key
