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
equals the engine's when the application probability is zero. On G(n, p)
no network is built: ``run_chain`` runs a cascade as a chain over class
counts, one ``binomial`` per step and class each for recruits, appliers and
hires; the tests check it against the engine on drawn graphs and against an
exact recursion.

Streams: ``replicate`` runs every batch and sweep, and every generator it
reads comes from ``replication_streams``, which starts it at a PCG64 state
read off a Philox counter block named by the master seed, the cell's path,
the stream's child index and the replication. Only public numpy calls make
them. On G(n, p) with skills the world stream draws a coverage histogram
(``skills.sample_coverage_counts``) and the hub's label. Direct posting is
a ``run_chain`` that stops after one hop (``oracle.post_vacancy``): the
oracle's star stream draws how many of the reached agents are qualified,
and its run stream runs the chain.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import ErdosRenyi, Network, _sort_unique


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


class CascadeResult(NamedTuple):
    """Outcome of one cascade run.

    ``chain_length`` counts agents on the recommendation path from seed to
    halter inclusive (a direct hire gives 2). For runs with no hire it is
    the deepest recommendation generation reached, counting seeds as 1.
    ``applicants`` counts every agent that ever applied, hired or not, and
    ``halters`` the number of agents hired at the last step. A named tuple,
    like ``StateCounts``: immutable, and about a third of a frozen
    dataclass's cost to build.
    """

    success: bool
    chain_length: int
    applicants: int
    halters: int
    steps: int
    seeds: tuple[int, ...]
    trace: tuple[StateCounts, ...] | None = None


def _normalize_seeds(seeds: Iterable[int], n: int) -> list[int]:
    """The distinct seed ids, ascending, as Python ints."""
    ids = []
    for s in seeds:
        try:
            if isinstance(s, bool):  # operator.index reads True as agent 1
                raise TypeError
            ids.append(operator.index(s))
        except TypeError:
            raise ValueError(f"seed agent id must be an integer, got {s!r}") from None
    if not ids:
        raise ValueError("at least one seed agent is required")
    if len(ids) > 1:
        ids = sorted(set(ids))
    # checked on Python ints: no numpy scalar per run, and no id past int64 reaches numpy
    if ids[0] < 0 or ids[-1] >= n:
        raise ValueError("seed agent id out of range")
    return ids


def _per_agent(value, n: int, name: str) -> np.float64 | np.ndarray:
    """A scalar becomes an ``np.float64``, which the draws compare with faster
    than with a Python float; a per-agent sequence becomes a length-n array."""
    if np.isscalar(value):
        return np.float64(value)
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be scalar or length-{n}, got shape {arr.shape}")
    return arr


_NONE = np.empty(0, dtype=np.int64)


def run_cascade(
    network: Network,
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
    are counted as halters; they necessarily share one chain length.
    ``rng_seed`` is anything ``numpy.random.default_rng`` accepts.

    Each step costs time in the arcs leaving its frontier, not in ``n``:
    passive targets are found by reading one passive bit per arc, recruits
    are deduplicated by sorting them, and the next frontier is the recruits
    that did not apply. A one-agent frontier's arcs are one neighbour list,
    sorted and free of repeats (a ``Network`` rejects duplicate edges), so
    its recruits need no sort; and a lone seed's arcs all reach passive
    agents (a ``Network`` rejects self-loops), so step 1 from one seed reads
    no passive bit. The length-n passive table is built only when a step
    will read it: before step 1 from several seeds, and from a lone seed
    once the run goes past step 1, when the seed and its recruits are
    marked; a lone-seed run that ends at step 1 builds none. Scalar
    ``p_r``/``p_a``/``p_h`` become ``np.float64`` once per run and are
    compared to the draws directly, and the hires are counted, not listed.
    What a run pays whatever its size is a few numpy calls per step and, in
    a batch with drawn seeds, the seed draw and the setting of its two
    generators (see ``replication_streams``). Every agent recruited at step
    s belongs to generation s + 1, so the deepest generation is one more
    than the last step that recruited anyone, and halters, all recruited at
    the final step, sit at that depth. The trace tallies the other four
    states: the frontier is the fresh agents, and the unhired applicants
    are all applicants but the halters.
    """
    n = network.n
    seed_ids = _normalize_seeds(seeds, n)
    p_a = _per_agent(params.p_a, n, "p_a")
    p_h = _per_agent(params.p_h, n, "p_h")
    per_agent_a = isinstance(p_a, np.ndarray)
    per_agent_h = isinstance(p_h, np.ndarray)
    p_r = np.float64(params.p_r)
    random = np.random.default_rng(rng_seed).random

    # a lone seed's arcs all reach passive agents, so its table waits for step 2
    passive = None
    if len(seed_ids) > 1:
        passive = np.ones(n, dtype=bool)
        passive[seed_ids] = False

    frontier = seed_ids  # a list at step 1, then an array
    unreached = n - len(seed_ids)
    spent = applicants_total = halters = last_recruiting_step = steps = 0
    trace = [StateCounts(unreached, len(frontier), 0, 0, 0)] if record_trace else None

    while True:
        steps += 1
        dst = network.out_arcs(frontier)
        if passive is not None:
            # compress/take, not dst[mask]: masking branches per element, 4-5x slower at half kept
            dst = dst.compress(passive.take(dst))
        newly = _NONE
        if dst.size:
            # per arc again: 10% kept of 20,000 arcs, compress 17 us, dst[mask] 49 us
            newly = dst.compress(random(dst.size) < p_r)
            if len(frontier) > 1:  # one agent's arcs are sorted, with no repeats
                newly = _sort_unique(newly)
        spent += len(frontier)

        frontier = _NONE
        if newly.size:
            if passive is not None:
                passive[newly] = False
            unreached -= newly.size
            last_recruiting_step = steps
            applies = random(newly.size) < (p_a[newly] if per_agent_a else p_a)
            applied = int(np.count_nonzero(applies))
            if applied:
                applicants_total += applied
                hire = p_h[newly[applies]] if per_agent_h else p_h
                halters = int(np.count_nonzero(random(applied) < hire))
                if applied < newly.size:
                    frontier = newly[~applies]
            else:
                frontier = newly

        if trace is not None:
            trace.append(
                StateCounts(unreached, frontier.size, spent, applicants_total - halters, halters)
            )
        if halters or frontier.size == 0:
            break
        if passive is None:  # a lone seed's run goes on: mark it and its recruits
            passive = np.ones(n, dtype=bool)
            passive[seed_ids[0]] = False
            passive[newly] = False

    return CascadeResult(
        success=bool(halters),
        chain_length=last_recruiting_step + 1,
        applicants=applicants_total,
        halters=halters,
        steps=steps,
        seeds=tuple(seed_ids),
        trace=tuple(trace) if trace is not None else None,
    )


def run_chain(
    p_a: Sequence[float], p_h: Sequence[float], p_r: float, p: float,
    unreached: Sequence[int], neighbours: Sequence[int], seed: int, rng: np.random.Generator,
    *, record_trace: bool = False,
) -> CascadeResult:
    """One cascade from agent ``seed`` on G(n, p), run as a chain over counts.

    Agents of class c apply with chance ``p_a[c]`` and are hired with chance
    ``p_h[c]``; ``unreached[c]`` of them are passive (the seed is not), and
    ``neighbours[c]`` of those are the seed's neighbours. A carrier examines
    only passive agents, which never become passive again, so each pair of a
    carrier and a passive agent is examined for the first time (principle of
    deferred decisions). With F carriers, each passive agent is thus
    recruited independently with chance ``1 - (1 - p p_r)**F``, a Reed-Frost
    chain binomial step (Abbey, Human Biology 24, 1952), and the class
    counts are the whole state (a lumped chain; Kemeny & Snell, *Finite
    Markov Chains*, 1960). Draws, per step and class in ascending order:
    ``binomial(pool, chance)`` recruits, from the class's neighbours with
    chance ``p_r`` at step 1 and from its unreached agents with the
    Reed-Frost chance after; if any, ``binomial(recruits, p_a[c])``
    appliers; if any, ``binomial(appliers, p_h[c])`` hires. The result,
    trace included, reads as ``run_cascade``'s.
    """
    unreached = list(unreached)
    pool, chance, contact = neighbours, p_r, p * p_r
    left, fresh = sum(unreached), 1
    spent = applicants = hires = last_recruiting_step = steps = 0
    trace = [StateCounts(left, fresh, 0, 0, 0)] if record_trace else None
    while True:
        steps += 1
        spent += fresh
        fresh = 0
        for c, size in enumerate(pool):
            recruits = rng.binomial(size, chance) if size else 0
            if recruits:
                unreached[c] -= recruits
                left -= recruits
                last_recruiting_step = steps
                appliers = rng.binomial(recruits, p_a[c])
                fresh += recruits - appliers
                if appliers:
                    applicants += appliers
                    hires += rng.binomial(appliers, p_h[c])
        if trace is not None:
            trace.append(StateCounts(left, fresh, spent, applicants - hires, hires))
        if hires or not fresh:
            break
        pool = unreached
        # at contact 1, log1p(-1) is -inf: every passive agent is recruited
        chance = 1.0 if contact == 1 else -math.expm1(fresh * math.log1p(-contact))
    return CascadeResult(
        success=bool(hires),
        chain_length=last_recruiting_step + 1,
        applicants=applicants,
        halters=hires,
        steps=steps,
        seeds=(seed,),
        trace=tuple(trace) if trace is not None else None,
    )


# -- streams ------------------------------------------------------------------

_BLOCK = 64  # replications whose Philox words replication_streams reads in one call


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
    generators are valid until the iterator advances. Philox is sequential,
    so it reads each stream's words as it goes, one ``random_raw`` call per
    ``_BLOCK`` replications, and its memory does not grow with ``reps``.
    Setting the states remains a fixed cost per stream and replication.
    """
    keys: dict[tuple[int, ...], np.ndarray] = {}
    philoxes = []
    for path, child in streams:
        if path not in keys:
            if not all(0 <= word < 2**32 for word in path):
                raise ValueError(f"path {path} has a word outside [0, 2**32)")
            keys[path] = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
        # an int counter: numpy reads a list with a word past 2**63 as floats
        philoxes.append(np.random.Philox(key=keys[path], counter=child << 64))
    blank = np.random.SeedSequence(0)  # every state is set below
    generators = [np.random.Generator(np.random.PCG64(blank)) for _ in philoxes]
    for start in range(0, reps if philoxes else 0, _BLOCK):  # no streams, no replications
        rows = min(_BLOCK, reps - start)
        blocks = [philox.random_raw(4 * rows).reshape(rows, 4).tolist() for philox in philoxes]
        for row in range(rows):
            for rng, block in zip(generators, blocks):
                w0, w1, w2, w3 = block[row]
                rng.bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": w0 << 64 | w1, "inc": w2 << 64 | w3 | 1},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
            yield generators


def replicate(
    seed: int,
    paths: Sequence[tuple[int, ...]],
    reps: int,
    network: Network | ErdosRenyi | Callable[[np.random.Generator], Network],
    params: Sequence[IHCParams | float],
    skills: tuple[float, int, float] | None = None,
    seeds: Sequence[int] | None = None,
    record_trace: bool = False,
) -> Iterator[tuple[int, Sequence[int], list[tuple[CascadeResult, CascadeResult | None]]]]:
    """Run the ``reps`` replications of one group of sweep cells, rep-major.

    A group is a list of cells that differ only in cascade parameters: cell
    ``i`` sits at grid position ``paths[i]`` and runs with ``params[i]``.
    Each replication builds the group's shared draws once (skill world,
    network, seed node) and runs every cell's cascade, and oracle, on them.
    So the cells of a group are dependent, each keeps its marginal
    distribution, and contrasts between them are paired.

    Stream rule: replication ``rep`` of the cell at ``path`` reads streams
    ``(path, child)`` of ``replication_streams``, one child per stream the
    sweep uses, in the fixed order skill world, network, seed node, cascade,
    then the oracle's star and its run. The shared streams are those
    of the group's first cell (the leader); every cell reads its own cascade
    and oracle children. Each stream thus comes from a distinct (path, child,
    rep), and the leader's draws are those of a group that holds it alone.
    One ``replication_streams`` call builds a generator for every stream
    read, and only for those: fixed ``seeds`` on a built network replace the
    seed-node draw, whose child keeps its number but is not built.

    ``network`` is a fixed ``Network``, a factory called with the network
    stream, or an ``ErdosRenyi`` G(n, p), on which no graph is built and
    ``seeds`` must be ``None``: each cell runs ``run_chain`` from the drawn
    seed agent over one class (scalar ``p_a``/``p_h``) or the world's
    coverage classes, and the network stream draws the seed's neighbours in
    each class, ``binomial(U_c, p)`` over the class's ``U_c`` other agents,
    in ascending class order, which all cells share. Each other agent is a
    neighbour independently with chance p (Gilbert, Ann. Math. Statist. 30,
    1959), so the degree, their sum, is ``binomial(n - 1, p)``, and one
    class makes it that one draw. Each ``params[i]`` holds the
    cascade probabilities; with ``skills`` = (skill_rate, vacancy_size,
    reach_fraction) it is ``p_r`` alone, the cell's ``p_a``/``p_h`` come from
    the replication's skill world, and the oracle posts on that same world
    at that reach. Build factories inside the caller, so that layer
    functions such as ``generate_ba`` are looked up by their module-level
    names at call time (the benchmark's tracer patches those names); the
    world samplers and the posting are looked up here at call time too.

    A skill world on a built network is per agent: ``sample_skill_world``,
    ``bind_params`` and ``simulate_oracle`` with agent 0 as the hub. On
    G(n, p) agents have no identities, and no length-n array is built: the
    world stream draws the coverage histogram from a ``CoverageLaw`` made
    once per call, then the hub's label, ``integers(n)``. Agents are
    labelled class by class, so the hub is qualified when its label lies in
    the full-coverage class, and the seed leaves the class whose cumulative
    count holds its id. The oracle is ``post_vacancy`` on the number of
    qualified agents other than the hub. A population of ``10**9`` or more,
    past numpy's hypergeometric urn limit, is refused before any draw.

    Yields, per replication, (the lowest seed agent's degree, seed agents,
    one (cascade result, oracle result or None) per cell). Only one network is
    alive at a time: the last one stays referenced until the next is built,
    so the allocator does not hand its pages back in between.
    """
    # skills and oracle import this module, so their names are looked up here
    from .oracle import post_vacancy, simulate_oracle
    from .skills import (
        _URN_LIMIT, CoverageLaw, bind_params, coverage_classes, sample_coverage_counts,
        sample_skill_world,
    )

    er = isinstance(network, ErdosRenyi)
    law = None
    if er:
        if seeds is not None:
            raise ValueError("a G(n, p) cascade runs from a drawn seed agent; seeds must be None")
        if skills is not None:
            if network.n >= _URN_LIMIT:
                raise ValueError(
                    f"population={network.n}: a G(n, p) population with skill worlds must be "
                    f"below {_URN_LIMIT}, numpy's hypergeometric urn limit"
                )
            law = CoverageLaw(network.n, *skills[:2])
            chains = [(*coverage_classes(skills[1]), p_r) for p_r in params]
        elif all(np.isscalar(c.p_a) and np.isscalar(c.p_h) for c in params):
            chains = [([c.p_a], [c.p_h], c.p_r) for c in params]
        else:
            raise ValueError("a G(n, p) cascade takes scalar p_a and p_h")
    # the shared streams: skill world, network, seed node
    uses_world, factory, draws_seed = skills is not None, callable(network), seeds is None
    uses_net = er or factory
    lead = uses_world + uses_net + 1  # the seed-node child keeps its number when not built
    children = [lead, lead + 1, lead + 2] if uses_world else [lead]  # cascade, oracle
    streams = replication_streams(
        seed,
        [(paths[0], child) for child in range(lead - 1 + draws_seed)]
        + [(path, child) for path in paths for child in children],
        reps,
    )
    net, rep_seeds, world = network, seeds, None
    for rngs in map(iter, streams):
        world_rng = next(rngs) if uses_world else None
        net_rng = next(rngs) if uses_net else None
        if factory:
            net = network(net_rng)
        n = net.n
        if draws_seed:
            rep_seeds = (int(next(rngs).integers(n)),)
        if law is not None:
            # agents are labelled class by class; the hub and the seed hold uniform labels
            unreached = sample_coverage_counts(law, world_rng)
            hub = int(world_rng.integers(n))
            qualified = unreached[-1] - (hub >= n - unreached[-1])
            unreached[bisect.bisect_right(list(itertools.accumulate(unreached)), rep_seeds[0])] -= 1
        elif uses_world:
            world = sample_skill_world(n, *skills[:2], world_rng)
        elif er:
            unreached = [n - 1]
        if er:
            neighbours = [net_rng.binomial(size, net.p) for size in unreached]
        outcomes = []
        for cell, cell_params in enumerate(params):
            if er:
                result = run_chain(
                    *chains[cell], net.p, unreached, neighbours, rep_seeds[0], next(rngs),
                    record_trace=record_trace,
                )
            else:
                cascade_params = cell_params if world is None else bind_params(world, cell_params)
                result = run_cascade(
                    net, cascade_params, rep_seeds, next(rngs), record_trace=record_trace
                )
            oracle = None
            if uses_world:
                star, run = next(rngs), next(rngs)
                if world is None:
                    oracle = post_vacancy(n, qualified, skills[2], cell_params, star, run)
                else:
                    oracle = simulate_oracle(world, skills[2], cell_params, star, run)
            outcomes.append((result, oracle))
        degree = sum(neighbours) if er else len(net.out_neighbors(outcomes[0][0].seeds[0]))
        yield degree, rep_seeds, outcomes


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
    the given set is reused. An ``ErdosRenyi`` takes drawn seeds only, and a
    given set raises ``ValueError`` before any draw. The batch is
    ``replicate``'s group of one cell at path ``()`` under ``master_seed``,
    so results do not depend on execution order, and any prefix of a longer
    batch is reproducible on its own.
    """
    for name, value in (("n_reps", n_reps), ("master_seed", master_seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    runs = replicate(master_seed, [()], n_reps, network, [params], None, seeds, record_trace)
    return [result for _, _, ((result, _),) in runs]
