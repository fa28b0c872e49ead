"""Network containers and generators for recommendation cascades.

Nodes are dense integers 0..n-1. Undirected graphs store every edge as a
pair of ordered arcs, and neighbor arrays are kept sorted so that sweeps
over arcs see a deterministic order regardless of construction history.
"""
from __future__ import annotations

import logging
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
        keys = u * n + v if directed else np.concatenate([u * n + v, v * n + u])
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edges are not allowed")

        # n = 0 admits no arc, so there is no key to decode
        sources, self._out_idx = np.divmod(keys, n) if n else (keys, keys)
        self._out_ptr = np.concatenate([[0], np.cumsum(np.bincount(sources, minlength=n))])

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

        ``sources`` must already be sorted ascending.
        """
        sources = np.asarray(sources, dtype=np.int64)
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

    # -- serialization -----------------------------------------------------

    def write_edge_list(self, target: str | Path | IO[str]) -> None:
        """Write one ``u v`` line per edge (canonical arc order)."""
        if hasattr(target, "write"):
            self._write_lines(target)  # type: ignore[arg-type]
        else:
            with open(target, "w", encoding="utf-8") as fh:
                self._write_lines(fh)

    def _write_lines(self, fh: IO[str]) -> None:
        fh.write(f"# {'directed' if self.directed else 'undirected'} n={self.n}\n")
        src = np.repeat(np.arange(self.n), np.diff(self._out_ptr))
        for u, v in zip(src, self._out_idx):
            if self.directed or u < v:
                fh.write(f"{u} {v}\n")


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
            jumps = rng.geometric(p, size=block)
            # tiny p can overflow the int64 geometric draw; any jump past the
            # pair range exits the walk regardless of magnitude, so clamping
            # keeps the distribution exact and the cumsum overflow-free
            jumps = np.where(jumps <= 0, total_pairs + 1, np.minimum(jumps, total_pairs + 1))
            steps = pos + np.cumsum(jumps)
            inside = steps[steps < total_pairs]
            parts.append(inside)
            if len(inside) < len(steps):
                break
            pos = int(steps[-1])
        selected = np.concatenate(parts)

    # pair index t -> (i, j) with i < j, row-major over the upper triangle
    i_all = np.arange(n, dtype=np.int64)
    offsets = i_all * (n - 1) - i_all * (i_all - 1) // 2
    i = np.searchsorted(offsets, selected, side="right") - 1
    j = selected - offsets[i] + i + 1
    return Network(n, np.column_stack([i, j]), directed=False)


def generate_ba(n: int, n0: int, k: int, seed) -> Network:
    """Preferential-attachment graph grown from a ring of n0 nodes.

    Each of the n - n0 added nodes attaches k distinct edges to existing
    nodes, drawn proportionally to current degree (collisions redrawn).
    """
    if not 1 <= k <= n0 < n:
        raise ValueError("need 1 <= k <= n0 < n")
    rng = np.random.default_rng(seed)

    if n0 == 1:
        core: list[tuple[int, int]] = []
    elif n0 == 2:
        core = [(0, 1)]
    else:
        core = [(i, (i + 1) % n0) for i in range(n0)]
    # both endpoints of each edge in turn; sampling this list is degree-proportional
    endpoints: list[int] = [v for e in core for v in e]

    for new in range(n0, n):
        targets: set[int] = set()
        while len(targets) < k:
            want = k - len(targets)
            if endpoints:
                pool = rng.integers(0, len(endpoints), size=2 * want + 4)
                cands = (endpoints[c] for c in pool)
            else:  # isolated core: fall back to uniform over existing nodes
                cands = (int(c) for c in rng.integers(0, new, size=2 * want + 4))
            for t in cands:
                targets.add(t)
                if len(targets) == k:
                    break
        for t in sorted(targets):
            endpoints.append(new)
            endpoints.append(t)
    return Network(n, np.array(endpoints, dtype=np.int64).reshape(-1, 2), directed=False)


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

    Lines starting with ``#`` and blank lines are skipped; extra columns are
    ignored. Arbitrary integer labels are remapped to 0..n-1 in sorted label
    order. Self-loops and duplicate edges are dropped (counts logged).
    """
    if hasattr(source, "read"):
        raw = _parse_lines(source)  # type: ignore[arg-type]
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = _parse_lines(fh)

    if not raw:
        raise EdgeListError(None, "no edges")

    flat = [label for pair in raw for label in pair]
    index = {lab: i for i, lab in enumerate(sorted(set(flat)))}
    n = len(index)
    pairs = np.fromiter(map(index.__getitem__, flat), np.int64, len(flat)).reshape(-1, 2)

    loops = pairs[:, 0] == pairs[:, 1]
    canon = pairs[~loops] if directed else np.sort(pairs[~loops], axis=1)
    keys = np.unique(canon[:, 0] * n + canon[:, 1])
    self_loops, duplicates = int(loops.sum()), len(canon) - len(keys)
    if self_loops or duplicates:
        log.info(
            "edge list: dropped %d self-loops and %d duplicate edges",
            self_loops,
            duplicates,
        )
    return Network(n, np.column_stack(np.divmod(keys, n)), directed=directed)


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
