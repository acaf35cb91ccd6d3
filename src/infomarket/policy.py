"""Policy instruments: the per-unit levy, fiduciary blending, provenance,
the adaptive tax controller, and robust max-min selection.

Three instruments target the three failures: a per-unit levy makes
low-quality output dearer, provenance standards raise public signal
precision, and a fiduciary duty blends social value into the platform's
objective.  A world's instruments are its parameters' ``policy`` section
(`config.PolicyParams`).  The levy is set there or retuned each tick from
the index reading by the adaptive rule; robust selection picks the policy
with the best worst case across candidate worlds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NoConvergence


@dataclass(frozen=True)
class PolicyConfig:
    """Instrument settings given to a `Simulation` apart from its parameters,
    which fold them into their ``policy`` section."""

    tax_l: float = 0.0
    fiduciary: float = 0.0
    provenance_boost: float = 0.0
    adaptive_eta: float | None = None
    ipi_target: float | None = None

    def __post_init__(self) -> None:
        if self.tax_l < 0:
            raise ValueError("tax_l must be nonnegative")
        if not 0 <= self.fiduciary <= 1:
            raise ValueError("fiduciary must lie in [0, 1]")
        if self.provenance_boost < 0:
            raise ValueError("provenance_boost must be nonnegative")
        if self.adaptive_eta is not None and self.adaptive_eta <= 0:
            raise ValueError("adaptive_eta must be positive")
        if self.ipi_target is not None and not 0 < self.ipi_target < 1:
            raise ValueError("ipi_target must lie in (0, 1)")

    @property
    def adaptive(self) -> bool:
        return self.adaptive_eta is not None and self.ipi_target is not None


def fiduciary_objective(
    platform_profit: float, value_h: float, harm_l: float, alpha: float
) -> float:
    """Platform objective under a fiduciary duty of intensity alpha.

    (1 - alpha) * profit + alpha * (consumed value - harm); affine in alpha.
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    return (1.0 - alpha) * platform_profit + alpha * (value_h - harm_l)


def adaptive_tax(tax_prev: float, ipi_prev: float, target: float, eta: float) -> float:
    """State-contingent levy update, floored at zero.

    tau_t = tau_{t-1} + eta * (IPI_{t-1} - target) / target.  The rule can
    drive the levy negative; subsidizing low-quality output contradicts its
    purpose, so the result is clamped at zero.
    """
    if tax_prev < 0:
        raise ValueError("tax_prev must be nonnegative")
    if not 0 <= ipi_prev <= 1:
        raise ValueError("ipi_prev must lie in [0, 1]")
    if not 0 < target < 1:
        raise ValueError("target must lie in (0, 1)")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return max(0.0, tax_prev + eta * (ipi_prev - target) / target)


@dataclass(frozen=True)
class RobustSelection:
    """Outcome of max-min policy selection across candidate worlds."""

    selected: str  # the winning policy's label
    selected_index: int
    welfare_matrix: tuple[tuple[float, ...], ...]  # [policy][world] final-window welfare
    ipi_matrix: tuple[tuple[float, ...], ...]
    failures: tuple[tuple[int, int], ...]  # (policy, world) cells that failed


def max_min_select(
    labels: Sequence[str],
    welfare: Sequence[Sequence[float]],
    ipi: Sequence[Sequence[float]],
    failures: Sequence[tuple[int, int]],
) -> RobustSelection:
    """Pick the policy whose worst-case welfare across worlds is largest.

    ``labels`` names the candidate policies in order; ``welfare[p][w]``
    and ``ipi[p][w]`` are policy p's final-window welfare and index in
    world w; ``failures`` lists the (policy, world) cells that did not
    converge.  A policy with any failed cell is disqualified (its
    worst case is failure), and so is one with a NaN cell (its worst case
    is unmeasured).  Ties break toward the lower mean final-window
    index across worlds, then toward list order.  With no policy left it
    raises NoConvergence naming the failed cells, or ValueError if none
    failed.
    """
    failed_policies = {p for p, _ in failures}
    best_idx: int | None = None
    best_key: tuple[float, float] | None = None
    for i in range(len(labels)):
        if i in failed_policies or any(math.isnan(x) for x in (*welfare[i], *ipi[i])):
            continue
        key = (min(welfare[i]), -sum(ipi[i]) / len(ipi[i]))
        if best_key is None or key > best_key:
            best_key = key
            best_idx = i
    if best_idx is None and not failures:
        raise ValueError("no candidate policy has a measured welfare and index in every world")
    if best_idx is None:
        cells = ", ".join(f"(policy {p}, world {w})" for p, w in failures)
        raise NoConvergence(f"every candidate policy failed in at least one world: {cells}")
    return RobustSelection(
        selected=labels[best_idx],
        selected_index=best_idx,
        welfare_matrix=tuple(tuple(row) for row in welfare),
        ipi_matrix=tuple(tuple(row) for row in ipi),
        failures=tuple(failures),
    )

