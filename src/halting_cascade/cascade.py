"""Discrete-time engine for halting recommendation cascades.

Agents move through five states. Passive agents may receive a job
recommendation and become fresh carriers; at the following step a carrier
passes the recommendation to its passive out-neighbors and retires. At the
step an agent is recommended it may instead apply for the job, and each new
applicant may be hired, which halts the whole cascade. Initial seeds act
purely as spreaders and never apply. Applicants that are not hired stay
applicants forever; they neither spread nor retry.

Randomness contract: each step consumes uniform draws in three blocks --
recommendation draws over candidate arcs in ascending (source, target)
order, application draws over newly recommended agents in ascending id,
then hiring draws over new applicants in ascending id. ``ic_reference``
replays the identical schedule, so with application probability zero both
engines produce identical spreads from a shared seed.
"""
from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class AgentState(enum.IntEnum):
    """Cascade states; values only ever increase for a given agent."""

    PASSIVE = 0
    FRESH = 1  # recommended this step, will spread next step unless it applies
    SPENT = 2  # already passed the recommendation on
    APPLIED = 3
    HALTED = 4


class StateCounts(NamedTuple):
    passive: int
    fresh: int
    spent: int
    applied: int
    halted: int


@dataclass(frozen=True)
class IHCParams:
    """Independent-halting-cascade probabilities.

    ``p_r`` is a scalar shared by every arc; ``p_a`` and ``p_h`` are
    scalars or length-n per-agent sequences.
    ``max_steps`` defaults to the node count at run time.
    """

    p_r: float
    p_a: float | Sequence[float] | np.ndarray
    p_h: float | Sequence[float] | np.ndarray
    max_steps: int | None = None

    def __post_init__(self):
        _check_prob("p_r", self.p_r)
        for name in ("p_a", "p_h"):
            value = getattr(self, name)
            if np.isscalar(value):
                _check_prob(name, float(value))  # type: ignore[arg-type]
            else:
                arr = np.asarray(value, dtype=float)
                if not np.all((arr >= 0) & (arr <= 1)):
                    raise ValueError(f"{name} values must lie in [0, 1]")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


def _check_prob(name: str, value: float) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of one cascade run.

    ``chain_length`` counts agents on the recommendation path from seed to
    halter inclusive (a direct hire gives 2). For runs with no hire it is
    the deepest recommendation generation reached, counting seeds as 1.
    ``applicants`` counts every agent that ever applied, hired or not.
    """

    success: bool
    chain_length: int
    applicants: int
    halters: frozenset[int]
    steps: int
    seeds: tuple[int, ...]
    trace: tuple[StateCounts, ...] | None = None


def _normalize_seeds(seeds: Iterable[int], n: int) -> np.ndarray:
    arr = np.unique(np.fromiter((int(s) for s in seeds), dtype=np.int64))
    if arr.size == 0:
        raise ValueError("at least one seed agent is required")
    if arr[0] < 0 or arr[-1] >= n:
        raise ValueError("seed agent id out of range")
    return arr


def _per_agent(value, n: int, name: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(n, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be scalar or length-{n}, got shape {arr.shape}")
    return arr


def _counts(state: np.ndarray) -> StateCounts:
    binned = np.bincount(state, minlength=5)
    return StateCounts(*(int(c) for c in binned[:5]))


def run_cascade(
    network,
    params: IHCParams,
    seeds: Iterable[int],
    rng_seed,
    *,
    record_trace: bool = False,
) -> CascadeResult:
    """Run one cascade to termination.

    The run ends when any applicant is hired (success), when no fresh
    carriers remain, or after ``max_steps`` steps. All agents hired at the
    final step are recorded as halters; they necessarily share one chain
    length. ``rng_seed`` is anything ``numpy.random.default_rng`` accepts.
    """
    n = network.n
    seed_arr = _normalize_seeds(seeds, n)
    p_a = _per_agent(params.p_a, n, "p_a")
    p_h = _per_agent(params.p_h, n, "p_h")
    max_steps = params.max_steps if params.max_steps is not None else n
    rng = np.random.default_rng(rng_seed)

    state = np.full(n, AgentState.PASSIVE, dtype=np.int8)
    state[seed_arr] = AgentState.FRESH
    generation = np.zeros(n, dtype=np.int64)
    generation[seed_arr] = 1

    frontier = seed_arr
    applicants_total = 0
    halters = np.empty(0, dtype=np.int64)
    trace = [_counts(state)] if record_trace else None
    steps = 0

    for step in range(1, max_steps + 1):
        steps = step
        passive_before = state == AgentState.PASSIVE
        dst = network.out_arcs(frontier)
        dst = dst[passive_before[dst]]
        state[frontier] = AgentState.SPENT

        newly = np.empty(0, dtype=np.int64)
        if dst.size:
            hit = rng.random(dst.size) < params.p_r
            newly = np.unique(dst[hit])

        appliers = np.empty(0, dtype=np.int64)
        if newly.size:
            state[newly] = AgentState.FRESH
            generation[newly] = step + 1
            appliers = newly[rng.random(newly.size) < p_a[newly]]

        if appliers.size:
            state[appliers] = AgentState.APPLIED
            applicants_total += int(appliers.size)
            halters = appliers[rng.random(appliers.size) < p_h[appliers]]
            state[halters] = AgentState.HALTED

        if trace is not None:
            trace.append(_counts(state))
        if halters.size:
            break
        frontier = np.setdiff1d(newly, appliers, assume_unique=True)
        if frontier.size == 0:
            break

    if halters.size:
        chain_length = int(generation[halters].min())
    else:
        chain_length = int(generation.max())
    return CascadeResult(
        success=bool(halters.size),
        chain_length=chain_length,
        applicants=applicants_total,
        halters=frozenset(int(h) for h in halters),
        steps=steps,
        seeds=tuple(int(s) for s in seed_arr),
        trace=tuple(trace) if trace is not None else None,
    )


def ic_reference(network, p_r, seeds: Iterable[int], rng_seed) -> int:
    """Plain independent-cascade spread; returns the reached-set size.

    Kept as a separate minimal implementation for cross-checking the full
    engine: it consumes one placeholder draw per newly activated node so
    its draw schedule matches ``run_cascade`` with zero application
    probability, making the two reached sets identical under a shared seed.
    """
    n = network.n
    seed_arr = _normalize_seeds(seeds, n)
    rng = np.random.default_rng(rng_seed)

    active = np.zeros(n, dtype=bool)
    active[seed_arr] = True
    frontier = seed_arr
    for _ in range(n):
        inactive_before = ~active
        dst = network.out_arcs(frontier)
        dst = dst[inactive_before[dst]]
        newly = np.empty(0, dtype=np.int64)
        if dst.size:
            hit = rng.random(dst.size) < p_r
            newly = np.unique(dst[hit])
        if newly.size:
            active[newly] = True
            rng.random(newly.size)  # placeholder application block
        frontier = newly
        if frontier.size == 0:
            break
    return int(active.sum())


def run_batch(
    network,
    params: IHCParams,
    n_reps: int,
    master_seed: int,
    seeds: Sequence[int] | None = None,
    *,
    record_trace: bool = False,
) -> list[CascadeResult]:
    """Run ``n_reps`` cascades on a fixed network.

    ``seeds=None`` draws one uniform seed agent per replication; otherwise
    the given set is reused. Replication i follows the CLI's stream rule
    with an empty cell path: it spawns the seed-node and cascade streams, in
    that order, from ``SeedSequence([master_seed, i])`` (the seed-node
    stream goes unread when ``seeds`` is given). Results do not depend on
    execution order, and any prefix of a longer batch is reproducible on
    its own.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    results = []
    for i in range(n_reps):
        node_ss, run_ss = np.random.SeedSequence([int(master_seed), i]).spawn(2)
        if seeds is None:
            rep_seeds: Sequence[int] = (
                int(np.random.default_rng(node_ss).integers(network.n)),
            )
        else:
            rep_seeds = seeds
        results.append(
            run_cascade(network, params, rep_seeds, run_ss, record_trace=record_trace)
        )
    return results
