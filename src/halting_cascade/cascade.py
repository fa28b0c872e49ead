"""Discrete-time engine for halting recommendation cascades.

Agents move through five states, the fields of ``StateCounts``. Passive
agents may receive a job recommendation and become fresh carriers; at the
following step a carrier passes the recommendation to its passive
out-neighbors and retires as spent. At the step an agent is recommended it
may instead apply for the job, and each new applicant may be hired, which
halts the whole cascade. Initial seeds act purely as spreaders and never
apply. Applicants that are not hired stay applicants forever; they neither
spread nor retry. The engine itself keeps only whether each agent is still
passive, and counts the other states.

Randomness contract: each step consumes uniform draws in three blocks --
recommendation draws over candidate arcs in ascending (source, target)
order, application draws over newly recommended agents in ascending id,
then hiring draws over new applicants in ascending id. The tests hold two
references that follow this schedule: the engine as first written, whose
results this one must equal, and a plain independent cascade, whose reach
equals the engine's when the application probability is zero.

Streams: every generator a batch or a sweep reads comes from
``replication_streams``, which starts it at a PCG64 state read off a Philox
counter block named by the master seed, the cell's path, the stream's child
index and the replication. Only public numpy calls make them.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import _sort_unique


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
    passive targets are found by reading one passive bit per arc, recruits
    are deduplicated by sorting them, and the next frontier is the recruits
    that did not apply. Scalar ``p_a``/``p_h`` are compared to the draws
    directly. Every agent recruited at step s belongs to generation s + 1,
    so the deepest generation is one more than the last step that recruited
    anyone, and halters, all recruited at the final step, sit at that depth.
    The trace tallies the other four states: the frontier is the fresh
    agents, and the unhired applicants are all applicants but the halters.
    """
    n = network.n
    seed_arr = _normalize_seeds(seeds, n)
    p_a = _per_agent(params.p_a, n, "p_a")
    p_h = _per_agent(params.p_h, n, "p_h")
    per_agent_a = isinstance(p_a, np.ndarray)
    per_agent_h = isinstance(p_h, np.ndarray)
    p_r = params.p_r
    rng = np.random.default_rng(rng_seed)

    passive = np.ones(n, dtype=bool)
    passive[seed_arr] = False

    frontier = seed_arr
    unreached = n - seed_arr.size
    spent = 0
    applicants_total = 0
    last_recruiting_step = 0
    halters = _NONE
    trace = [StateCounts(unreached, frontier.size, 0, 0, 0)] if record_trace else None
    steps = 0

    while True:
        steps += 1
        dst = network.out_arcs(frontier)
        # compress/take, not dst[mask]: masking branches per element, 4-5x slower at half kept
        dst = dst.compress(passive.take(dst))
        spent += frontier.size

        frontier = _NONE
        if dst.size:
            # per arc again: 10% kept of 20,000 arcs, compress 17 us, dst[mask] 49 us
            newly = _sort_unique(dst.compress(rng.random(dst.size) < p_r))
            if newly.size:
                passive[newly] = False
                unreached -= newly.size
                last_recruiting_step = steps
                draws = rng.random(newly.size)
                applies = draws < (p_a[newly] if per_agent_a else p_a)
                appliers = newly[applies]
                if appliers.size:
                    applicants_total += int(appliers.size)
                    draws = rng.random(appliers.size)
                    halters = appliers[draws < (p_h[appliers] if per_agent_h else p_h)]
                    frontier = newly[~applies]
                else:
                    frontier = newly

        if trace is not None:
            unhired = applicants_total - halters.size
            trace.append(StateCounts(unreached, frontier.size, spent, unhired, halters.size))
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


# -- streams ------------------------------------------------------------------

def replication_streams(
    seed: int | Sequence[int], streams: Sequence[tuple[tuple[int, ...], int]], reps: int
) -> Iterator[list[np.random.Generator]]:
    """Per replication ``rep`` < ``reps``, one PCG64 generator per ``(path,
    child)`` of ``streams``, each at the start of its stream.

    Each stream's state is one block of four 64-bit words of Philox4x64-10, a
    counter-based generator (Salmon et al., "Parallel random numbers: as easy
    as 1, 2, 3", SC 2011). The key is ``SeedSequence(seed,
    spawn_key=path).generate_state(2, uint64)``, and (child, rep) is the block
    at counter ``[rep + 1, child, 0, 0]``: words ``[4 rep, 4 rep + 4)`` of
    ``Philox(key=key, counter=[0, child, 0, 0]).random_raw``, since Philox
    steps the counter before each block. Words ``w0..w3`` give ``state = w0
    << 64 | w1`` and ``inc = w2 << 64 | w3 | 1``. So a replication's streams
    depend neither on ``reps`` nor on other paths, and no two (path, child,
    rep) share a block: path words lie in [0, 2**32) (``SeedSequence`` splits
    wider ones, so ``(2**32,)`` would name ``(0, 1)``'s key) and children are
    not negative. A path's key is that of ``SeedSequence(seed)``'s spawn child.

    A call builds its generators once and sets them to each replication's
    states in turn, with no half-word buffered, so a replication's
    generators are valid until the iterator advances.
    """
    keys: dict[tuple[int, ...], np.ndarray] = {}
    columns = []
    for path, child in streams:
        if path not in keys:
            if not all(0 <= word < 2**32 for word in path):
                raise ValueError(f"path {path} has a word outside [0, 2**32)")
            keys[path] = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
        # an int counter: numpy reads a list with a word past 2**63 as floats
        philox = np.random.Philox(key=keys[path], counter=child << 64)
        columns.append(philox.random_raw(4 * reps).reshape(reps, 4).tolist())
    generators = [np.random.default_rng(0) for _ in columns]  # every state is set below
    for words in zip(*columns):
        for rng, (w0, w1, w2, w3) in zip(generators, words):
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": w0 << 64 | w1, "inc": w2 << 64 | w3 | 1},
                "has_uint32": 0,
                "uinteger": 0,
            }
        yield generators


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
    for a group of one cell with an empty path: it reads replication i of
    children 0 (seed node) and 1 (cascade) of ``replication_streams`` with
    seed ``master_seed`` and path ``()``; the seed-node stream is not
    computed when ``seeds`` is given. Results do not depend on execution
    order, and any prefix of a longer batch is reproducible on its own.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    children = (0, 1) if seeds is None else (1,)  # seed node, cascade
    streams = replication_streams(int(master_seed), [((), child) for child in children], n_reps)
    results = []
    for *node_rng, run_rng in streams:
        rep_seeds = (int(node_rng[0].integers(network.n)),) if node_rng else seeds
        results.append(run_cascade(network, params, rep_seeds, run_rng, record_trace=record_trace))
    return results
