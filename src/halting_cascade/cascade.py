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

Streams: every generator a batch or a sweep reads starts from a PCG64 state
that the seed tree (``seed_tree``) computes, equal by test to that of the
``SeedSequence`` child the stream stands for. The tree follows the seeding
recipes NEP 19 holds stable, so a numpy release that changed them would fail
that equivalence test rather than move outputs silently. Callers reseed one
generator for each stream, so a generator handed out is valid until the
next stream is taken.
"""
from __future__ import annotations

import enum
import functools
from collections.abc import Iterable, Iterator, Sequence
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
        # compress/take, not dst[mask]: masking branches per element, 4-5x slower at half kept
        dst = dst.compress(state.take(dst) == _PASSIVE)
        state[frontier] = _SPENT

        frontier = _NONE
        if dst.size:
            # per arc again: 10% kept of 20,000 arcs, compress 17 us, dst[mask] 49 us
            newly = _sort_unique(dst.compress(rng.random(dst.size) < p_r))
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


# -- seed tree ----------------------------------------------------------------
#
# Every stream of a sweep is the PCG64 generator that
# ``PCG64(SeedSequence(entropy, spawn_key=key))`` would give. NEP 19 holds
# both seeding recipes stable, and each is a short integer program, so the
# tree runs them over a whole batch of keys at once instead of building the
# objects: the entropy words are hash-mixed into a pool of four uint32 lanes
# (``SeedSequence.mix_entropy``), the pool yields four 64-bit words
# (``generate_state(4, uint64)``), and PCG64's ``srandom`` turns those into
# its (state, inc) pair. This couples the code to numpy's seeding: a release
# that changed either recipe would fail the equivalence test in
# ``tests/test_cascade.py`` rather than move outputs silently.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(entropy) -> list[int]:
    """Little-endian uint32 words of a non-negative int or a sequence of
    them, split as ``SeedSequence`` splits its entropy."""
    words = []
    for value in [entropy] if isinstance(entropy, (int, np.integer)) else entropy:
        value = int(value)
        if value < 0:
            raise ValueError("seed entropy must be non-negative")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def _row_words(rows) -> np.ndarray:
    """Rows of ints below 2**32 as a lane-major (words, rows) uint32 array."""
    arr = np.asarray(rows, dtype=np.int64)
    if arr.shape == (0,):  # no rows at all
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError("rows must be equal-length sequences of ints")
    if (arr >> 32).any():  # a negative int keeps its sign bits
        raise ValueError("row entries must lie in [0, 2**32)")
    return arr.T.astype(np.uint32)


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


@functools.lru_cache(maxsize=8)
def _mix_plan(length: int) -> np.ndarray:
    """Every constant of one pass over ``length`` entropy words, one row of
    four lane values each, in the order ``_tree`` reads them.

    Rows: the shift and the two ``mix`` multipliers; then (xor, multiplier)
    pairs of ``mix_entropy``'s hash calls: the first round (word i into lane
    i), four cross rounds (lane s into every other lane; lane s's own value
    is a placeholder) and one round per word past the pool (one word into
    every lane); then the two passes of ``generate_state`` over the pool.
    The hash constant advances once per call whatever the data, so one row
    serves every row of the batch.
    """
    mix = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, _POOL * length)
    state = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 2 * _POOL)
    plan = [[16] * _POOL, [_MIX_MULT_L] * _POOL, [_MIX_MULT_R] * _POOL]
    plan += [mix[:_POOL], mix[1 : _POOL + 1]]
    call = _POOL
    for s in range(_POOL):
        xor, mult = [0] * _POOL, [0] * _POOL
        for d in range(_POOL):
            if d != s:
                xor[d], mult[d] = mix[call], mix[call + 1]
                call += 1
        plan += [xor, mult]
    for call in range(call, _POOL * length, _POOL):
        plan += [mix[call : call + _POOL], mix[call + 1 : call + _POOL + 1]]
    plan += [state[:_POOL], state[_POOL:-1], state[1 : _POOL + 1], state[_POOL + 1 :]]
    plan = np.array(plan, dtype=np.uint32)[:, :, None]
    plan.flags.writeable = False  # shared by every pass of this length
    return plan


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray, shift) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> shift
    return value


def _entropy_words(run: int, key: int, rows: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """A zeroed lane-major uint32 array for ``run`` entropy words and ``key``
    spawn-key words per row, and the index of the first key word.

    ``SeedSequence`` zero-pads the entropy to the pool size only when there
    is a spawn key; without one, missing lanes hash a 0 all the same, so
    padding always gives the same mix.
    """
    key_start = max(run, _POOL)
    return np.zeros((key_start + key, *rows), dtype=np.uint32), key_start


def _tree(assembled: np.ndarray) -> list[dict]:
    """PCG64 states of the rows of ``assembled`` (lane-major: one column of
    entropy words, padding and spawn-key words per row)."""
    rows = assembled.shape[1]
    # every constant spelled out over the batch: same-shape operands keep
    # numpy's per-call cost low when the batch is a handful of rows
    plan = np.repeat(_mix_plan(len(assembled)), rows, axis=2)
    shift, mul_l, mul_r = plan[:3]
    pairs = iter(zip(plan[3:-4:2], plan[4:-4:2]))

    def mix(x, y):
        out = x * mul_l
        y *= mul_r
        out -= y
        out ^= out >> shift
        return out

    pool = _hashmix(assembled[:_POOL], *next(pairs), shift)
    for s in range(_POOL):
        mixed = mix(pool, _hashmix(pool[s], *next(pairs), shift))
        mixed[s] = pool[s]
        pool = mixed
    for word in assembled[_POOL:]:
        pool = mix(pool, _hashmix(word, *next(pairs), shift))

    # generate_state(4, uint64): two passes over the pool give eight uint32
    # words per row, read as four uint64 with the low word first
    words = plan[-4:-2] ^ pool
    words *= plan[-2:]
    words ^= words >> shift
    seeds = words.reshape(2 * _POOL, rows).T.astype("<u4", order="C").view("<u8").tolist()
    states = []
    for s0, s1, s2, s3 in seeds:
        inc = ((s2 << 65) | (s3 << 1) | 1) & _MASK128  # PCG64 srandom
        state = ((inc + ((s0 << 64) | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


def seed_tree(entropy, tails, keys) -> list[dict]:
    """PCG64 states of ``SeedSequence([*entropy, *tails[i]], spawn_key=keys[i])``.

    ``entropy`` is a non-negative int, or a sequence of them, shared by every
    row; ints of 2**32 or more count as several words, as in
    ``SeedSequence``. ``tails`` and ``keys`` are equal-length sequences of
    rows of ints below 2**32, each rectangular (rows may be empty). Row i's
    state is ``==`` ``np.random.PCG64(SeedSequence(...)).state``, ready to
    assign to a generator's ``bit_generator.state``; no ``SeedSequence`` or
    ``PCG64`` is built. The hash mix runs over all rows at once.
    """
    root, tail_words, key_words = _words(entropy), _row_words(tails), _row_words(keys)
    if tail_words.shape[1] != key_words.shape[1]:
        raise ValueError("tails and keys must have the same number of rows")
    run = len(root) + len(tail_words)
    assembled, key_start = _entropy_words(run, len(key_words), tail_words.shape[1:])
    assembled[: len(root)] = np.reshape(root, (-1, 1))
    assembled[len(root) : run] = tail_words
    assembled[key_start:] = key_words
    return _tree(assembled)


def reseeded(rng: np.random.Generator, state: dict) -> np.random.Generator:
    """``rng``, a PCG64 generator, moved to ``state``, one of ``seed_tree``'s.

    The callers keep one generator and reseed it for every stream they read,
    so a generator handed out is valid until the next stream is taken.
    """
    rng.bit_generator.state = state
    return rng


def replication_states(
    seed: int, rows: Sequence[tuple[int, ...]], keys: Sequence[tuple[int, ...]], reps: int
) -> Iterator[list[dict]]:
    """Per replication ``rep``, one state per ``(rows[j], keys[j])`` pair: that of
    ``SeedSequence([seed, *rows[j], rep], spawn_key=keys[j])``.

    One pass of the seed tree computes the states of all replications, as
    ``seed_tree`` would, from the few distinct rows and keys.
    """
    if not 0 <= reps <= _MASK32 + 1:
        raise ValueError("reps must lie in [0, 2**32]")
    if any(v < 0 or v > _MASK32 for row in (*rows, *keys) for v in row):
        raise ValueError("row entries must lie in [0, 2**32)")
    if not rows:
        return
    width, root = len(rows), _words(seed)
    runs = np.array([[*root, *row, 0] for row in rows], dtype=np.uint32).T
    key_words = np.array(keys, dtype=np.uint32).T
    assembled, key_start = _entropy_words(len(runs), len(key_words), (reps, width))
    assembled[: len(runs)] = runs[:, None, :]
    assembled[len(runs) - 1] = np.arange(reps, dtype=np.uint32)[:, None]  # the rep
    assembled[key_start:] = key_words[:, None, :]
    states = _tree(assembled.reshape(len(assembled), -1))
    for start in range(0, len(states), width):
        yield states[start : start + width]


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
    streams are PCG64 states equal by test to those of children 0 and 1 of
    ``SeedSequence([master_seed, i])``, computed for the whole batch by one
    pass of the seed tree (the seed-node stream is skipped when ``seeds`` is
    given). One generator is reseeded for each stream, so a generator handed
    out is valid until the next stream is taken. Results do not depend on
    execution order, and any prefix of a longer batch is reproducible on its
    own.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    children = (0, 1) if seeds is None else (1,)  # seed node, cascade
    streams = replication_states(
        int(master_seed), [()] * len(children), [(child,) for child in children], n_reps
    )
    rng = np.random.default_rng(0)  # reseeded before every read
    results = []
    for *node_state, run_state in streams:
        rep_seeds = seeds
        if seeds is None:
            rep_seeds = (int(reseeded(rng, node_state[0]).integers(network.n)),)
        results.append(
            run_cascade(
                network, params, rep_seeds, reseeded(rng, run_state), record_trace=record_trace
            )
        )
    return results
