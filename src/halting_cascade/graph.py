"""Network containers and generators for recommendation cascades.

Nodes are dense integers 0..n-1. Undirected graphs store every edge as a
pair of ordered arcs, and neighbor arrays are kept sorted so that sweeps
over arcs see a deterministic order regardless of construction history.
"""
from __future__ import annotations

import io
import logging
import math
import operator
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

import numpy as np

log = logging.getLogger(__name__)


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the 1-based line number (None: whole file)."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class Network:
    """A simple graph over nodes 0..n-1, directed or undirected.

    Self-loops and duplicate edges are rejected. Out-adjacency is stored in
    compressed sparse form; ``out_neighbors`` returns a sorted array view.
    """

    __slots__ = ("n", "directed", "_out_ptr", "_out_idx")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        directed: bool = False,
    ):
        if n < 0:
            raise ValueError("node count must be non-negative")
        if n > 2**32:
            raise ValueError("node count must be at most 2**32, so that arc keys fit 64 bits")
        self.n = n = int(n)
        self.directed = bool(directed)

        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValueError(f"edge endpoints must be integers, got dtype {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise ValueError("edge endpoint out of range")
            if (pairs[:, 0] == pairs[:, 1]).any():
                raise ValueError("self-loops are not allowed")

        # one key (u << b) | v per arc, b bits per endpoint: sorted keys list the
        # arcs in (source, target) order, and a repeated arc (or reversed
        # undirected edge) repeats a key. Keys below 2**32 are shifted in int64
        # and stored as uint32, which numpy sorts faster; wider ones are shifted
        # in uint64 (the endpoints are non-negative, so the view keeps them)
        b = max(1, (n - 1).bit_length())
        narrow = 2 * b <= 32
        ends = pairs if narrow else pairs.view(np.uint64)
        u, v = ends[:, 0], ends[:, 1]
        m = len(pairs)
        keys = np.empty(m if directed else 2 * m, dtype=np.uint32 if narrow else np.uint64)
        # shifted straight into the keys: a temporary array per pass costs page
        # faults when the allocator trims and regrows its heap between builds
        np.left_shift(u, b, out=keys[:m], casting="unsafe")
        np.bitwise_or(keys[:m], v, out=keys[:m], casting="unsafe")
        if not directed:
            np.left_shift(v, b, out=keys[m:], casting="unsafe")
            np.bitwise_or(keys[m:], u, out=keys[m:], casting="unsafe")
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edges are not allowed")

        # row u holds the keys from u << b on; the low b bits are the target
        self._out_ptr = np.empty(n + 1, dtype=np.int64)
        self._out_ptr[:n] = np.searchsorted(keys, np.arange(n, dtype=keys.dtype) << b)
        self._out_ptr[n] = len(keys)
        self._out_idx = np.bitwise_and(keys, 2**b - 1, out=np.empty(len(keys), dtype=np.int64))
        self._out_idx.flags.writeable = False  # out_arcs and out_neighbors hand out views

    # -- structure ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Number of undirected edges, or of arcs when directed."""
        arcs = len(self._out_idx)
        return arcs if self.directed else arcs // 2

    def out_neighbors(self, u: int) -> np.ndarray:
        return self._out_idx[self._out_ptr[u] : self._out_ptr[u + 1]]

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self._out_ptr)

    def out_arcs(self, sources: np.ndarray) -> np.ndarray:
        """Targets of all arcs leaving ``sources``, in ascending (source, target) order.

        ``sources`` must already be sorted ascending. A single source gets a
        read-only view of the network's own storage, as ``out_neighbors`` does.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 1:
            return self.out_neighbors(sources.item())
        starts = self._out_ptr[sources]
        lens = self._out_ptr[sources + 1] - starts
        offsets = starts - (np.cumsum(lens) - lens)
        arcs = np.repeat(offsets, lens)
        arcs += np.arange(arcs.size)
        return self._out_idx.take(arcs)  # 5-13% faster than [arcs] from 2,000 arcs up

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and len(self._out_idx) == len(other._out_idx)
            and bool(np.array_equal(self._out_ptr, other._out_ptr))
            and bool(np.array_equal(self._out_idx, other._out_idx))
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Network(n={self.n}, edges={self.edge_count}, {kind})"


# -- generators -------------------------------------------------------------


# the largest double below 2**63: every double up to it converts to int64 exactly
_JUMP_CEILING = float(2**63 - 1024)


def _jumps(rng: np.random.Generator, p: float, size: int, cap: int) -> np.ndarray:
    """``size`` geometric(p) jumps for 0 < p < 1, clipped to ``[1, cap]``.

    Each jump is ``ceil(-E / log1p(-p))`` for a standard exponential E, which
    is geometric on 1, 2, ... exactly: P(jump > j) = P(E > -j log1p(-p)) =
    (1 - p)**j. The exponentials are drawn as one block.
    """
    jumps = rng.standard_exponential(size)
    # a subnormal p overflows the quotient to inf, which the ceiling clamps
    with np.errstate(over="ignore"):
        jumps /= -math.log1p(-p)
    np.ceil(jumps, out=jumps)
    np.minimum(jumps, _JUMP_CEILING, out=jumps)
    jumps = jumps.astype(np.int64)
    return np.clip(jumps, 1, cap, out=jumps)


def _er_probability(n: int, mean_degree: float) -> float:
    """The pair probability p = mean_degree/(n-1) of G(n, p), after checking both."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 <= mean_degree <= n - 1:
        raise ValueError("mean degree must lie in [0, n-1]")
    return mean_degree / (n - 1)


def generate_er(n: int, mean_degree: float, seed) -> Network:
    """Erdos-Renyi G(n, p) with p chosen to hit the requested mean degree.

    Every unordered pair is an edge independently with p = mean_degree/(n-1).
    Sampling walks the pair index space with geometric jumps (Batagelj &
    Brandes, PRE 71, 036113, 2005), so the cost is proportional to the number
    of edges drawn.

    Draw schedule: pairs are indexed row-major over the upper triangle. The
    walk starts at pos = -1 and takes ``_jumps`` in blocks of ``int((n(n-1)/2
    - pos) * p * 1.1) + 16``, each block one ``rng.standard_exponential``
    call, until a jump leaves the pair range. p = 0 draws nothing and takes
    no pair; p = 1 draws nothing and takes every pair.
    """
    p = _er_probability(n, mean_degree)
    total_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(seed)

    if p == 0:
        selected = np.empty(0, dtype=np.int64)
    elif p == 1:
        selected = np.arange(total_pairs, dtype=np.int64)
    else:
        parts = []
        pos = -1
        while True:
            block = int((total_pairs - pos) * p * 1.1) + 16
            # tiny p can overflow the jump; any jump past the pair range exits
            # the walk regardless of magnitude, so clamping keeps the
            # distribution exact and the cumsum overflow-free
            steps = _jumps(rng, p, block, total_pairs + 1)
            np.cumsum(steps, out=steps)
            steps += pos
            # jumps are positive, so the steps ascend and the walk leaves the
            # pair range at one cut
            cut = int(np.searchsorted(steps, total_pairs))
            parts.append(steps[:cut])
            if cut < len(steps):
                break
            pos = int(steps[-1])
        selected = parts[0] if len(parts) == 1 else np.concatenate(parts)

    # pair index t -> (i, j) with i < j, row-major over the upper triangle;
    # selected ascends, so row i's pairs are one run found by n searches
    i_all = np.arange(n, dtype=np.int64)
    offsets = i_all * (n - 1) - i_all * (i_all - 1) // 2
    counts = np.diff(np.searchsorted(selected, offsets), append=len(selected))
    pairs = np.empty((len(selected), 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(i_all, counts)
    np.subtract(selected, np.repeat(offsets - i_all - 1, counts), out=pairs[:, 1])
    return Network(n, pairs, directed=False)


@dataclass(frozen=True)
class ErdosRenyi:
    """G(n, p) with p = mean_degree/(n-1), as a law: no graph is built.

    A sweep hands it to ``cascade.replicate``, which draws a replication's
    seed agent and reveals that agent's neighbours (``reveal``), and
    ``run_cascade`` samples the cascade on the rest of the graph as the
    cascade examines it. Takes ``generate_er``'s arguments and checks.
    """

    n: int
    mean_degree: float
    p: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p", _er_probability(self.n, self.mean_degree))

    def reveal(self, node: int, seed) -> ErdosRenyiStar:
        """The graph with ``node``'s neighbours drawn and every other pair unrevealed.

        Draws ``binomial(n - 1, p)`` for the degree, then the neighbours as
        ``choice(n - 1, degree, replace=False, shuffle=False)``, sorted, where
        an index i stands for agent i below ``node`` and i + 1 from it on.
        ``seed`` is anything ``numpy.random.default_rng`` accepts.
        """
        try:
            node = operator.index(node)
        except TypeError:
            raise ValueError(f"seed agent id must be an integer, got {node!r}") from None
        if not 0 <= node < self.n:
            raise ValueError("seed agent id out of range")
        rng = np.random.default_rng(seed)
        degree = rng.binomial(self.n - 1, self.p)
        others = rng.choice(self.n - 1, degree, replace=False, shuffle=False)
        others.sort()
        others += others >= node
        others.flags.writeable = False
        return ErdosRenyiStar(self, node, others)


@dataclass(frozen=True, eq=False)
class ErdosRenyiStar:
    """A G(n, p) draw of which only the pairs of agent ``seed`` are revealed.

    ``neighbors`` is that agent's sorted, read-only neighbour array. A
    cascade on it must start from ``seed`` alone.
    """

    graph: ErdosRenyi
    seed: int
    neighbors: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    def out_neighbors(self, u: int) -> np.ndarray:
        if u != self.seed:
            raise ValueError(f"only agent {self.seed}'s neighbours are revealed")
        return self.neighbors


_CHUNK = 256  # added nodes whose first pools generate_ba draws in one call


def generate_ba(n: int, n0: int, k: int, seed) -> Network:
    """Preferential-attachment graph grown from a ring of n0 nodes.

    Each of the n - n0 added nodes attaches k distinct edges to existing
    nodes, drawn proportionally to current degree (collisions redrawn).

    Draw schedule: the endpoint list holds both endpoints of each edge in
    turn, the core's first, so a uniform index into it picks a node with
    probability proportional to its degree. Nodes are resolved in order, so
    the list a node draws from holds every earlier node's edges; its size at
    a node is known in advance, since every added node adds k edges. For
    each run of ``_CHUNK`` added nodes, one ``rng.integers(0, sizes[:, None],
    (rows, 2k+4))`` call draws every node's first pool of ``2k+4`` indices
    into the list as it stands at that node, reading the generator as one
    scalar-bound call per node in turn would. A node's targets are the first
    k distinct candidates of its pool in draw order, found by one scan. A
    node whose pool holds fewer than k distinct candidates puts them ahead
    of a further pool from the same ``rng``, ``rng.integers(0, size,
    2*want+4)`` with ``want`` the number still missing, and scans that
    again, until it has k; these draws come when the scan reaches the node,
    so ``_CHUNK`` only decides where they fall. Its k targets, sorted, are
    appended after the node as k edges (new, target). When the core is one
    node, the first added node attaches to node 0 with no draw, and the
    chunks start after it. The tests keep this schedule as a plain
    list-and-set loop, which must give ``==`` graphs.
    """
    if not 1 <= k <= n0 < n:
        raise ValueError("need 1 <= k <= n0 < n")
    rng = np.random.default_rng(seed)

    if n0 == 1:
        core = np.empty((0, 2), dtype=np.int64)
    elif n0 == 2:
        core = np.array([[0, 1]])
    else:
        ring = np.arange(n0)
        core = np.column_stack([ring, (ring + 1) % n0])
    # every added node adds exactly k edges, so the list's fill level at each
    # node is known and the whole list is allocated up front
    pairs = np.empty((len(core) + k * (n - n0), 2), dtype=np.int64)
    pairs[: len(core)] = core
    pairs[len(core) :, 0] = np.repeat(np.arange(n0, n), k)
    endpoints = pairs.reshape(-1)
    targets = pairs[len(core) :].reshape(n - n0, k, 2)[:, :, 1]

    pool = 2 * k + 4
    draw = np.arange(pool)
    # first[v]: the first draw index of node v in the current scan, ``pool``
    # when absent; np.minimum.at applies every repeated index in turn
    first = np.full(n, pool)
    start = 0
    if not len(core):  # one-node core: the first added node can only pick node 0
        targets[0] = 0
        start = 1
    for row in range(start, n - n0, _CHUNK):
        sizes = 2 * (len(core) + k * np.arange(row, min(row + _CHUNK, n - n0)))
        picks = rng.integers(0, sizes[:, None], (len(sizes), pool))
        for i, size in enumerate(sizes.tolist()):
            cands, order = endpoints[picks[i]], draw
            while True:
                np.minimum.at(first, cands, order)
                distinct = cands[first[cands] == order]
                first[cands] = pool
                if len(distinct) >= k:
                    break
                # the distinct ones lead the next scan, so they all stay; it
                # holds 2k+4 - len(distinct) candidates, at most ``pool``
                more = endpoints[rng.integers(0, size, 2 * (k - len(distinct)) + 4)]
                cands = np.concatenate((distinct, more))
                order = draw[: len(cands)]
            picked = distinct[:k]
            picked.sort()
            targets[row + i] = picked
    return Network(n, pairs, directed=False)


def generate_star(n: int, reach_fraction: float, seed) -> Network:
    """Directed star: hub 0 points at round(reach_fraction * (n-1)) leaves."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= reach_fraction <= 1:
        raise ValueError("reach fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    leaf_count = round(reach_fraction * (n - 1))
    if leaf_count:
        leaves = rng.choice(n - 1, size=leaf_count, replace=False) + 1
        arcs = np.column_stack([np.zeros(leaf_count, dtype=np.int64), np.sort(leaves)])
    else:
        arcs = np.empty((0, 2), dtype=np.int64)
    return Network(n, arcs, directed=True)


# -- I/O ---------------------------------------------------------------------


def load_edge_list(source: str | Path | IO[str], directed: bool = False) -> Network:
    """Parse a whitespace-separated edge list into a dense-index Network.

    Lines whose first non-blank character is ``#`` and blank lines are
    skipped; a ``#`` anywhere else belongs to a column. Columns after the
    second are ignored. Arbitrary integer labels are remapped to 0..n-1 in
    sorted label order. Self-loops and duplicate edges are dropped (counts
    logged). A file is read once, as bytes, and decoded as UTF-8 text with
    universal newlines; a byte that does not decode is an error on its line.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "rb") as fh:
            data = fh.read()
        try:
            text, decoded = data.decode("utf-8"), True
        except UnicodeDecodeError as exc:
            # the text before the bad byte: its line ends number the bad line
            text, decoded = data[: exc.start].decode("utf-8"), False
        if "\r" in text:  # universal newlines: \r\n and a lone \r end a line
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if not decoded:
            raise EdgeListError(text.count("\n") + 1, "not UTF-8 text")

    labels = _read_labels(text)
    if labels is None:
        raw = _parse_lines(io.StringIO(text))
        if not raw:
            raise EdgeListError(None, "no edges")
        # Python ints: labels beyond int64 stay distinct and sort by value
        labels = np.array(raw, dtype=object)
    ids, pairs = np.unique(labels, return_inverse=True)
    n = len(ids)
    pairs = pairs.reshape(-1, 2)

    loops = pairs[:, 0] == pairs[:, 1]
    kept = pairs[~loops]
    u, v = kept[:, 0], kept[:, 1]
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    canon = u * n + v
    keys = _sort_unique(canon)
    self_loops, duplicates = int(loops.sum()), len(canon) - len(keys)
    if self_loops or duplicates:
        log.info(
            "edge list: dropped %d self-loops and %d duplicate edges",
            self_loops,
            duplicates,
        )
    return Network(n, np.column_stack(np.divmod(keys, n)), directed=directed)


# a "#" straight after a non-blank character: numpy's tokenizer starts a
# comment there, while the line parser keeps it as part of the column
_GLUED_COMMENT = re.compile(r"\S#")


def _read_labels(text: str) -> np.ndarray | None:
    """The first two columns as int64 rows, read by numpy's tokenizer.

    None when the text needs the line parser, which alone gives line numbers
    in its errors and reads labels beyond int64: numpy raised or warned (a
    short line, a label it cannot read, a lone carriage return inside a
    line, no data at all), or a ``#`` is glued to a column.
    """
    if "#" in text and _GLUED_COMMENT.search(text):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # the lines a StringIO would yield, cut in one str.split pass
            # rather than one readline per line
            return np.loadtxt(
                text.split("\n"), dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2
            )
        except (ValueError, Warning):
            return None


def _sort_unique(arr: np.ndarray) -> np.ndarray:
    """``np.unique(arr)`` by an in-place sort; ``arr`` must be the caller's own copy."""
    if arr.size > 1:
        arr.sort()
        distinct = np.empty(arr.size, dtype=bool)
        distinct[0] = True
        np.not_equal(arr[1:], arr[:-1], out=distinct[1:])
        arr = arr[distinct]
    return arr


def _parse_lines(fh: IO[str]) -> list[tuple[int, int]]:
    raw: list[tuple[int, int]] = []
    for line_no, line in enumerate(fh, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) < 2:
            raise EdgeListError(line_no, "expected at least two columns")
        try:
            raw.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise EdgeListError(line_no, f"non-integer node label in {fields[:2]}") from None
    return raw


@dataclass(frozen=True)
class DegreeSummary:
    mean_out_degree: float
    histogram: dict[int, int]


def degree_stats(network: Network) -> DegreeSummary:
    """Mean out-degree and out-degree histogram (counts sum to n)."""
    degrees = network.out_degrees
    mean = float(degrees.sum() / network.n) if network.n else 0.0
    values, counts = np.unique(degrees, return_counts=True)
    return DegreeSummary(mean, dict(zip(values.tolist(), counts.tolist())))
