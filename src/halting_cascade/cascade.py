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
then hiring draws over new applicants in ascending id. The tests hold two
references that follow this schedule: the engine as first written, whose
results this one must equal, and a plain independent cascade, whose reach
equals the engine's when the application probability is zero.
"""
from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import _sort_unique


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
    """

    p_r: float
    p_a: float | Sequence[float] | np.ndarray
    p_h: float | Sequence[float] | np.ndarray

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
    arr = _sort_unique(np.fromiter((int(s) for s in seeds), dtype=np.int64))
    if arr.size == 0:
        raise ValueError("at least one seed agent is required")
    if arr[0] < 0 or arr[-1] >= n:
        raise ValueError("seed agent id out of range")
    return arr


def _per_agent(value, n: int, name: str) -> float | np.ndarray:
    """A scalar stays a float; a per-agent sequence becomes a length-n array."""
    if np.isscalar(value):
        return float(value)
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be scalar or length-{n}, got shape {arr.shape}")
    return arr


def _counts(state: np.ndarray) -> StateCounts:
    binned = np.bincount(state, minlength=5)
    return StateCounts(*(int(c) for c in binned[:5]))


_PASSIVE, _FRESH, _SPENT, _APPLIED, _HALTED = (int(s) for s in AgentState)
_NONE = np.empty(0, dtype=np.int64)


def run_cascade(
    network,
    params: IHCParams,
    seeds: Iterable[int],
    rng_seed,
    *,
    record_trace: bool = False,
) -> CascadeResult:
    """Run one cascade to termination.

    The run ends when any applicant is hired (success) or when no fresh
    carriers remain. Every step but the last recruits at least one passive
    agent, so a run ends within n steps. All agents hired at the final step
    are recorded as halters; they necessarily share one chain length.
    ``rng_seed`` is anything ``numpy.random.default_rng`` accepts.

    Each step costs time in the arcs leaving its frontier, not in ``n``:
    passive targets are found by reading their state per arc, recruits are
    deduplicated by sorting them, and the next frontier is the recruits
    that did not apply. Scalar ``p_a``/``p_h`` are compared to the draws
    directly. Every agent recruited at step s belongs to generation s + 1,
    so the deepest generation is one more than the last step that recruited
    anyone, and halters, all recruited at the final step, sit at that depth.
    """
    n = network.n
    seed_arr = _normalize_seeds(seeds, n)
    p_a = _per_agent(params.p_a, n, "p_a")
    p_h = _per_agent(params.p_h, n, "p_h")
    per_agent_a = isinstance(p_a, np.ndarray)
    per_agent_h = isinstance(p_h, np.ndarray)
    p_r = params.p_r
    rng = np.random.default_rng(rng_seed)

    state = np.zeros(n, dtype=np.int8)
    state[seed_arr] = _FRESH

    frontier = seed_arr
    applicants_total = 0
    last_recruiting_step = 0
    halters = _NONE
    trace = [_counts(state)] if record_trace else None
    steps = 0

    while True:
        steps += 1
        dst = network.out_arcs(frontier)
        dst = dst[state[dst] == _PASSIVE]
        state[frontier] = _SPENT

        frontier = _NONE
        if dst.size:
            newly = _sort_unique(dst[rng.random(dst.size) < p_r])
            if newly.size:
                state[newly] = _FRESH
                last_recruiting_step = steps
                draws = rng.random(newly.size)
                applies = draws < (p_a[newly] if per_agent_a else p_a)
                appliers = newly[applies]
                if appliers.size:
                    state[appliers] = _APPLIED
                    applicants_total += int(appliers.size)
                    draws = rng.random(appliers.size)
                    halters = appliers[draws < (p_h[appliers] if per_agent_h else p_h)]
                    state[halters] = _HALTED
                    frontier = newly[~applies]
                else:
                    frontier = newly

        if trace is not None:
            trace.append(_counts(state))
        if halters.size or frontier.size == 0:
            break

    return CascadeResult(
        success=bool(halters.size),
        chain_length=last_recruiting_step + 1,
        applicants=applicants_total,
        halters=frozenset(halters.tolist()),
        steps=steps,
        seeds=tuple(seed_arr.tolist()),
        trace=tuple(trace) if trace is not None else None,
    )


def stream_children(seed, count: int, start: int = 0) -> list[np.random.SeedSequence]:
    """``count`` children of ``seed`` from child index ``start`` on, as a fresh
    ``spawn(start + count)[start:]`` gives them.

    ``seed`` is a ``SeedSequence`` or the entropy to build one from (an int
    or a sequence of ints). Each child is built from the parent's entropy and
    spawn key directly, so no parent pool is mixed, and a ``SeedSequence``
    passed in is left unchanged: the same object gives the same children
    every time, where ``spawn`` would move on to new ones.
    """
    indices = range(start, start + count)
    if not isinstance(seed, np.random.SeedSequence):
        return [np.random.SeedSequence(seed, spawn_key=(j,)) for j in indices]
    return [
        np.random.SeedSequence(
            seed.entropy, spawn_key=(*seed.spawn_key, j), pool_size=seed.pool_size
        )
        for j in indices
    ]


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
    for a group of one cell with an empty path: its seed-node and cascade
    streams are children 0 and 1 of ``SeedSequence([master_seed, i])``,
    built directly by ``stream_children`` (the seed-node stream goes unread
    when ``seeds`` is given). Results do not depend on execution order, and
    any prefix of a longer batch is reproducible on its own.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    master_seed = int(master_seed)
    results = []
    for i in range(n_reps):
        node_ss, run_ss = stream_children([master_seed, i], 2)
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
