"""Accuracy parameters of the PTAS.

The paper fixes two derived thresholds from the accuracy parameter ``ε``:

* ``δ = ε²`` — a core job of class ``k`` has size in ``[ε·s_k, s_k/δ)``;
  bigger jobs are fringe jobs;
* ``γ = ε³`` — a core machine of class ``k`` has ``s_k ≤ T·v_i < s_k/γ``;
  ``γ`` is also the width parameter of the (overlapping) speed groups.

``1/ε`` is assumed to be an integer ≥ 2 in the paper; we only require
``0 < ε ≤ 1/2`` and round nothing, since the analysis survives any ε in
that range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PTASParams"]


@dataclass(frozen=True)
class PTASParams:
    """Accuracy and budget parameters of the PTAS.

    Attributes
    ----------
    epsilon:
        The accuracy parameter ``ε ∈ (0, 1/2]``.
    exact_group_search_limit:
        Per speed group, the maximum number of big objects for which the
        exact branch-and-bound assignment is attempted before falling back
        to best-fit-decreasing (the engineering substitution for the
        paper's DP; see :mod:`repro.algorithms.ptas.search`).
    exact_machine_limit:
        Same, for the number of machines in the group.
    """

    epsilon: float = 0.25
    exact_group_search_limit: int = 14
    exact_machine_limit: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= 0.5):
            raise ValueError("epsilon must lie in (0, 1/2]")

    @property
    def delta(self) -> float:
        """``δ = ε²`` (core/fringe job threshold)."""
        return self.epsilon ** 2

    @property
    def gamma(self) -> float:
        """``γ = ε³`` (core machine threshold and speed-group width)."""
        return self.epsilon ** 3

    @property
    def simplification_inflation(self) -> float:
        """The makespan inflation ``(1+ε)^5`` caused by Lemmas 2.2–2.4."""
        return (1.0 + self.epsilon) ** 5

    @property
    def conversion_inflation(self) -> float:
        """The inflation ``(1+ε)^4`` of the relaxed-to-regular conversion (Lemma 2.8)."""
        return (1.0 + self.epsilon) ** 4

    @property
    def total_guarantee(self) -> float:
        """Overall ``1 + O(ε)`` factor of the decision procedure."""
        return self.simplification_inflation * self.conversion_inflation * (1.0 + self.epsilon)
