"""Batch statistics and critical-regime diagnostics for cascade runs."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

from .cascade import CascadeResult


class Regime(Enum):
    """Position of a parameter point relative to the two critical boundaries.

    The diffusion boundary is mean_degree * p_r * (1 - p_a) = 1: above it,
    each spreader recruits at least one new spreader in expectation. The
    halting boundary is mean_degree * p_r * p_a * p_h = 1: above it, each
    spreader produces at least one successful hire in expectation.
    """

    ABOVE_BOTH = "above_both"
    DIFFUSION_ONLY = "diffusion_only"
    HALTING_ONLY = "halting_only"
    BELOW_BOTH = "below_both"


@dataclass(frozen=True)
class RegimeReport:
    diffusion_value: float
    halting_value: float
    regime: Regime


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate statistics over a batch of cascade runs.

    ``median_chain_length`` covers every run (lower median on even counts);
    ``mean_chain_depth`` only the successful ones and is NaN when the batch
    has no successes.
    """

    n_runs: int
    success_rate: float
    median_chain_length: int
    mean_chain_depth: float
    mean_applicants: float

    def as_dict(self) -> dict[str, object]:
        """The fields in declaration order, which is the CLI's column order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def classify_regime(mean_degree: float, p_r: float, p_a: float, p_h: float) -> RegimeReport:
    """Evaluate both boundary expressions; values of exactly 1 count as above."""
    for name, value in (("p_r", p_r), ("p_a", p_a), ("p_h", p_h)):
        if not 0 <= value <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if not 0 <= mean_degree < math.inf:
        raise ValueError(f"mean_degree must be finite and non-negative, got {mean_degree}")
    diffusion = mean_degree * p_r * (1 - p_a)
    halting = mean_degree * p_r * p_a * p_h
    if diffusion >= 1 and halting >= 1:
        regime = Regime.ABOVE_BOTH
    elif diffusion >= 1:
        regime = Regime.DIFFUSION_ONLY
    elif halting >= 1:
        regime = Regime.HALTING_ONLY
    else:
        regime = Regime.BELOW_BOTH
    return RegimeReport(diffusion, halting, regime)


def _lower_median(values: Sequence[int]) -> int:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def summarize(results: Sequence[CascadeResult]) -> BatchSummary:
    """Aggregate a batch of runs; raises on an empty batch."""
    if not results:
        raise ValueError("cannot summarize an empty batch")
    n = len(results)
    successes = [r for r in results if r.success]
    if successes:
        mean_depth = sum(r.chain_length for r in successes) / len(successes)
    else:
        mean_depth = math.nan
    return BatchSummary(
        n_runs=n,
        success_rate=len(successes) / n,
        median_chain_length=_lower_median([r.chain_length for r in results]),
        mean_chain_depth=mean_depth,
        mean_applicants=sum(r.applicants for r in results) / n,
    )


def degree_bin(degree: int) -> tuple[int, int]:
    """Half-open power-of-two bin [lo, hi) holding ``degree``; 0 maps to [0, 1)."""
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if degree == 0:
        return (0, 1)
    exp = degree.bit_length() - 1
    return (1 << exp, 1 << (exp + 1))
