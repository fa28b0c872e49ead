"""Network containers and generators for recommendation cascades.

Nodes are dense integers 0..n-1. Undirected graphs store every edge as a
pair of ordered arcs, and neighbor arrays are kept sorted so that sweeps
over arcs see a deterministic order regardless of construction history.
"""
from __future__ import annotations

import io
import logging
import re
import warnings
from collections import Counter
from dataclasses import dataclass
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
        self.n = n = int(n)
        self.directed = bool(directed)

        pairs = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        ).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise ValueError("edge endpoint out of range")
            if (pairs[:, 0] == pairs[:, 1]).any():
                raise ValueError("self-loops are not allowed")

        # one key u*n + v per arc: sorted keys list the arcs in (source, target)
        # order, and a repeated arc (or reversed undirected edge) repeats a key
        u, v = pairs[:, 0], pairs[:, 1]
        m = len(pairs)
        keys = np.empty(m if directed else 2 * m, dtype=np.int64)
        np.multiply(u, n, out=keys[:m])
        keys[:m] += v
        if not directed:
            np.multiply(v, n, out=keys[m:])
            keys[m:] += u
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edges are not allowed")

        # row u holds the keys in [u*n, (u+1)*n); subtracting u*n leaves the target
        rows = np.arange(n + 1, dtype=np.int64) * n
        self._out_ptr = np.searchsorted(keys, rows)
        keys -= np.repeat(rows[:-1], np.diff(self._out_ptr))
        self._out_idx = keys
        self._out_idx.flags.writeable = False  # out_arcs and out_neighbors hand out views

    # -- structure ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Number of undirected edges, or of arcs when directed."""
        arcs = len(self._out_idx)
        return arcs if self.directed else arcs // 2

    def edges(self) -> set[tuple[int, int]]:
        """All ordered arcs; an undirected edge appears in both directions."""
        src = np.repeat(np.arange(self.n), np.diff(self._out_ptr))
        return {(int(u), int(v)) for u, v in zip(src, self._out_idx)}

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
        return self._out_idx[arcs]

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


def generate_er(n: int, mean_degree: float, seed) -> Network:
    """Erdos-Renyi G(n, p) with p chosen to hit the requested mean degree.

    Every unordered pair is an edge independently with p = mean_degree/(n-1).
    Sampling walks the pair index space with geometric jumps, so the cost is
    proportional to the number of edges drawn.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 <= mean_degree <= n - 1:
        raise ValueError("mean degree must lie in [0, n-1]")
    p = mean_degree / (n - 1)
    total_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(seed)

    if p == 0:
        selected = np.empty(0, dtype=np.int64)
    else:
        parts = []
        pos = -1
        while True:
            block = int((total_pairs - pos) * p * 1.1) + 16
            steps = rng.geometric(p, size=block)
            # tiny p can overflow the int64 geometric draw; any jump past the
            # pair range exits the walk regardless of magnitude, so clamping
            # keeps the distribution exact and the cumsum overflow-free
            np.minimum(steps, total_pairs + 1, out=steps)
            steps[steps <= 0] = total_pairs + 1
            np.cumsum(steps, out=steps)
            steps += pos
            # jumps are positive, so the steps ascend and the walk leaves the
            # pair range at one cut
            cut = int(np.searchsorted(steps, total_pairs))
            parts.append(steps[:cut])
            if cut < len(steps):
                break
            pos = int(steps[-1])
        selected = np.concatenate(parts)

    # pair index t -> (i, j) with i < j, row-major over the upper triangle;
    # selected ascends, so row i's pairs are one run found by n searches
    i_all = np.arange(n, dtype=np.int64)
    offsets = i_all * (n - 1) - i_all * (i_all - 1) // 2
    counts = np.diff(np.searchsorted(selected, offsets), append=len(selected))
    pairs = np.empty((len(selected), 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(i_all, counts)
    np.subtract(selected, np.repeat(offsets - i_all - 1, counts), out=pairs[:, 1])
    return Network(n, pairs, directed=False)


def generate_ba(n: int, n0: int, k: int, seed) -> Network:
    """Preferential-attachment graph grown from a ring of n0 nodes.

    Each of the n - n0 added nodes attaches k distinct edges to existing
    nodes, drawn proportionally to current degree (collisions redrawn).

    Draw schedule: the endpoint list holds both endpoints of each edge in
    turn, the core's first, so a uniform index into it picks a node with
    probability proportional to its degree. Per added node, one pool of
    ``2*want+4`` indices into the list as it stands, with ``want = k``, is
    drawn by ``rng.integers``; the node's targets are the first k distinct
    candidates in draw order. A node whose pool holds fewer than k distinct
    candidates keeps them all and draws more pools with ``want`` the number
    still missing, scanning each in draw order until it has k. Its k targets,
    sorted, are then appended after the node as k edges (new, target). The
    first node after a one-node core, whose list is empty, draws its pool
    uniformly over the existing nodes instead. The tests keep this schedule
    as a plain list-and-set loop, which must give ``==`` graphs.
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
    # first[v]: the first draw index of node v in the current pool, ``pool``
    # when absent; np.minimum.at applies every repeated index in turn
    first = np.full(n, pool)
    for row, new in enumerate(range(n0, n)):
        size = 2 * (len(core) + k * row)
        chosen: set[int] = set()
        if size:
            cands = endpoints[rng.integers(0, size, size=pool)]
            np.minimum.at(first, cands, draw)
            distinct = cands[first[cands] == draw]
            first[cands] = pool
            if len(distinct) >= k:
                picked = distinct[:k]
                picked.sort()
                targets[row] = picked
                continue
            chosen.update(distinct.tolist())
        targets[row] = _redraw(rng, endpoints[:size], new, k, chosen)
    return Network(n, pairs, directed=False)


def _redraw(
    rng: np.random.Generator, endpoints: np.ndarray, new: int, k: int, chosen: set[int]
) -> list[int]:
    """Complete a short node's targets, pool by pool, one candidate at a time."""
    while len(chosen) < k:
        want = k - len(chosen)
        if len(endpoints):
            cands = endpoints[rng.integers(0, len(endpoints), size=2 * want + 4)]
        else:  # isolated core: fall back to uniform over existing nodes
            cands = rng.integers(0, new, size=2 * want + 4)
        for t in cands.tolist():
            chosen.add(t)
            if len(chosen) == k:
                break
    return sorted(chosen)


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
    logged). A file is read as UTF-8 text with universal newlines; a byte
    that does not decode is an error on its line.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            raise EdgeListError(_undecodable_line(source), "not UTF-8 text") from None

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


def _undecodable_line(path: str | Path) -> int | None:
    """The 1-based line of a file's first byte that is not UTF-8, counting
    LF, CR LF and a lone CR as line ends, as the text reader does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return None


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
            return np.loadtxt(
                io.StringIO(text), dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2
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
    return DegreeSummary(mean, dict(Counter(int(d) for d in degrees)))
