import io
import itertools
import logging
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from halting_cascade import cascade, graph
from halting_cascade.cascade import IHCParams, replicate
from halting_cascade.graph import (
    EdgeListError,
    ErdosRenyi,
    Network,
    degree_stats,
    generate_ba,
    generate_er,
    generate_star,
    load_edge_list,
)
from test_exact_network import ALPHA, RUNS, chi_square


def _complete(n: int) -> Network:
    return Network(n, [(u, v) for u in range(n) for v in range(u + 1, n)], directed=False)


def _is_connected(network: Network) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in network.out_neighbors(u):
            if int(v) not in seen:
                seen.add(int(v))
                stack.append(int(v))
    return len(seen) == network.n


def _reference_arcs(edges: list[tuple[int, int]], directed: bool) -> list[tuple[int, int]]:
    reversed_edges = [] if directed else [(v, u) for u, v in edges]
    return sorted(set(edges) | set(reversed_edges))


def _reference_csr(n: int, arcs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    ptr = [0] * (n + 1)
    for u, _ in arcs:
        ptr[u + 1] += 1
    for i in range(n):
        ptr[i + 1] += ptr[i]
    return ptr, [v for _, v in arcs]


def edges(net: Network) -> set[tuple[int, int]]:
    """All ordered arcs; an undirected edge appears in both directions."""
    src = np.repeat(np.arange(net.n), np.diff(net._out_ptr))
    return {(int(u), int(v)) for u, v in zip(src, net._out_idx)}


def _in_neighbors(net: Network, w: int) -> list[int]:
    """Sources of the arcs into ``w``, ascending, read off the out-arc CSR."""
    arcs_in = np.flatnonzero(net._out_idx == w)
    return (np.searchsorted(net._out_ptr, arcs_in, side="right") - 1).tolist()


def _in_degrees(net: Network) -> list[int]:
    return np.bincount(net._out_idx, minlength=net.n).tolist()


def _ring_core(n0: int) -> list[tuple[int, int]]:
    if n0 == 1:
        return []
    if n0 == 2:
        return [(0, 1)]
    return [(i, (i + 1) % n0) for i in range(n0)]


def _reference_ba(n: int, n0: int, k: int, seed) -> Network:
    """Preferential attachment as first written, on a Python list of
    endpoints and a set of targets per node: each node draws its pools one
    ``rng.integers`` call at a time. The tests hold it as the law that
    ``generate_ba``'s graphs must follow (``test_distributions``)."""
    rng = np.random.default_rng(seed)
    endpoints: list[int] = [v for e in _ring_core(n0) for v in e]
    for new in range(n0, n):
        targets: set[int] = set()
        while len(targets) < k:
            want = k - len(targets)
            if endpoints:
                pool = rng.integers(0, len(endpoints), size=2 * want + 4)
                cands = (endpoints[c] for c in pool)
            else:
                cands = (int(c) for c in rng.integers(0, new, size=2 * want + 4))
            for t in cands:
                targets.add(t)
                if len(targets) == k:
                    break
        for t in sorted(targets):
            endpoints.append(new)
            endpoints.append(t)
    return Network(n, np.array(endpoints, dtype=np.int64).reshape(-1, 2), directed=False)


def _chunked_reference_ba(n: int, n0: int, k: int, seed) -> tuple[Network, int]:
    """The draw schedule of ``generate_ba``'s docstring on a Python list of
    endpoints and a set of targets per node, and the number of pools drawn
    past the first ones; the library's array form must give ``==`` graphs."""
    rng = np.random.default_rng(seed)
    endpoints: list[int] = [v for e in _ring_core(n0) for v in e]
    first = n0
    if not endpoints:  # one-node core: the first node picks node 0 undrawn
        endpoints += [n0, 0]
        first += 1
    extra = 0
    for start in range(first, n, graph._CHUNK):
        stop = min(start + graph._CHUNK, n)
        sizes = len(endpoints) + 2 * k * np.arange(stop - start)
        pools = rng.integers(0, sizes[:, None], (stop - start, 2 * k + 4))
        for new, pool in zip(range(start, stop), pools.tolist()):
            targets: set[int] = set()
            size = len(endpoints)
            while True:
                for c in pool:
                    targets.add(endpoints[c])
                    if len(targets) == k:
                        break
                if len(targets) == k:
                    break
                extra += 1
                pool = rng.integers(0, size, 2 * (k - len(targets)) + 4).tolist()
            for t in sorted(targets):
                endpoints.append(new)
                endpoints.append(t)
    network = Network(n, np.array(endpoints, dtype=np.int64).reshape(-1, 2), directed=False)
    return network, extra


def _twins(seed, buffered: bool) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state; ``buffered`` leaves a high half-word waiting in both."""
    twins = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        for rng in twins:
            rng.integers(0, 10)
    return twins


class _CountingIntegers(np.random.Generator):
    """A generator that counts its ``integers`` calls with a scalar bound."""

    scalar_calls = 0

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        self.scalar_calls += np.ndim(high) == 0
        return super().integers(low, high, size, dtype, endpoint)


def _reference_er(n: int, mean_degree: float, seed) -> Network:
    """G(n, p) drawn by the geometric-jump walk ``generate_er`` took before
    its binomial edge count and uniform pair set: each jump ``ceil(-E /
    log1p(-p))`` clipped to [1, pairs + 1]. Kept only to build the graph of
    ``tests/test_cascade.py``'s ``TestBatch::test_batch_output_pinned``,
    whose digests were computed on that graph."""
    p = mean_degree / (n - 1)
    total_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    if p == 0:
        selected = np.empty(0, dtype=np.int64)
    elif p == 1:
        selected = np.arange(total_pairs)
    else:
        parts = []
        pos = -1
        while True:
            block = int((total_pairs - pos) * p * 1.1) + 16
            with np.errstate(over="ignore"):
                jumps = np.ceil(rng.standard_exponential(block) / -np.log1p(-p))
            jumps = np.clip(jumps, 1, total_pairs + 1).astype(np.int64)
            steps = pos + np.cumsum(jumps)
            inside = steps[steps < total_pairs]
            parts.append(inside)
            if len(inside) < len(steps):
                break
            pos = int(steps[-1])
        selected = np.concatenate(parts)
    i_all = np.arange(n, dtype=np.int64)
    offsets = i_all * (n - 1) - i_all * (i_all - 1) // 2
    i = np.searchsorted(offsets, selected, side="right") - 1
    j = selected - offsets[i] + i + 1
    return Network(n, np.column_stack([i, j]), directed=False)


def _reference_load(fh, directed: bool = False) -> Network:
    """``load_edge_list`` of an open text handle as first written: every line
    stripped, split and converted in Python, labels renumbered through a
    dict. The library's tokenizer path must give the same network, or the
    same error with the same line number."""
    raw = []
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
    if not raw:
        raise EdgeListError(None, "no edges")
    flat = [label for pair in raw for label in pair]
    index = {lab: i for i, lab in enumerate(sorted(set(flat)))}
    n = len(index)
    pairs = np.fromiter(map(index.__getitem__, flat), np.int64, len(flat)).reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    canon = pairs[~loops] if directed else np.sort(pairs[~loops], axis=1)
    keys = np.unique(canon[:, 0] * n + canon[:, 1])
    return Network(n, np.column_stack(np.divmod(keys, n)), directed=directed)


# labels numpy's tokenizer reads; then labels only Python's int() reads,
# labels neither reads, a glued "#" and an empty column
_PLAIN_LABELS = ["0", "1", "2", "3", "-4", "+5", "007", str(-(2**63))]
_ODD_LABELS = ["1_0", "\u0661", str(2**63), str(2**64 - 1), "1.5", "#x", ""]
# line ends, some followed by blank lines; a lone "\r" ends a line for
# numpy's tokenizer but is blank space inside a line for the line parser
_PLAIN_ENDS = ["\n", "\n", "\r\n", "\n\n", "\n \t\n"]


def _edge_list_lines(labels: list[str], ends: list[str]):
    return st.tuples(
        st.sampled_from(["", "", " ", "\t", "#", " # "]),  # a "#" lead: a comment line
        st.lists(st.sampled_from(labels), min_size=2, max_size=4),
        st.sampled_from([" ", " ", "\t", " \t", "\x0c"]),
        st.sampled_from(["", "", "", " ", "#x", " # c"]),  # "#x" glues to the last column
        st.sampled_from(ends),
    ).map(lambda p: p[0] + p[2].join(p[1]) + "".join(p[3:]))


# half the texts keep to what numpy's tokenizer reads, except for glued "#"s,
# and the rest draw from every label and line end
_edge_list_texts = st.sampled_from(
    [
        (_PLAIN_LABELS, _PLAIN_ENDS),
        (_PLAIN_LABELS * 4 + _ODD_LABELS, _PLAIN_ENDS + ["\r"]),
    ]
).flatmap(lambda pool: st.lists(_edge_list_lines(*pool), max_size=12).map("".join))


def _outcome(load):
    """The loaded network, or the error's type, message and line number."""
    try:
        return load()
    except EdgeListError as exc:
        return type(exc), str(exc), exc.line_no


def _assert_same(got, want) -> None:
    assert got == want
    if isinstance(want, Network):
        assert got._out_ptr.dtype == want._out_ptr.dtype
        assert got._out_idx.dtype == want._out_idx.dtype


@st.composite
def _ba_params(draw):
    """(n, n0, k) with 1 <= k <= n0 < n, small enough for the list loop."""
    n0 = draw(st.integers(1, 12))
    k = draw(st.integers(1, n0))
    n = draw(st.integers(n0 + 1, n0 + 60))
    return n, n0, k


@st.composite
def _simple_graphs(draw):
    """(n, distinct edges in arbitrary order, directed), n in 0..30."""
    n = draw(st.integers(0, 30))
    directed = draw(st.booleans())
    if n < 2:
        return n, [], directed
    node = st.integers(0, n - 1)
    edges = draw(
        st.lists(
            st.tuples(node, node).filter(lambda e: e[0] != e[1]),
            max_size=60,
            unique_by=(lambda e: e) if directed else (lambda e: (min(e), max(e))),
        )
    )
    return n, edges, directed


class TestNetwork:
    def test_undirected_stores_both_directions(self):
        net = Network(3, [(0, 1), (1, 2)], directed=False)
        assert edges(net) == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert net.edge_count == 2

    def test_directed_keeps_arcs_as_given(self):
        net = Network(3, [(0, 1), (1, 0), (1, 2)], directed=True)
        assert edges(net) == {(0, 1), (1, 0), (1, 2)}
        assert net.edge_count == 3

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Network(3, [(1, 1)], directed=True)

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Network(3, [(0, 1), (0, 1)], directed=True)
        with pytest.raises(ValueError):
            Network(3, [(0, 1), (1, 0)], directed=False)

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError):
            Network(3, [(0, 3)], directed=True)
        with pytest.raises(ValueError):
            Network(3, [(-1, 0)], directed=True)

    def test_rejects_non_integer_endpoints(self):
        # checked before the int64 cast, which would truncate 1.7 to 1 and
        # warn on NaN; an empty edge list of any dtype is still no edges
        for edges in ([(0, 1.7)], np.array([[0, np.nan]]), np.array([[0, 1]], dtype=object)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be integers"):
                    Network(3, edges)
        for edges in ([], np.empty((0, 2)), np.empty(0, dtype=object)):
            assert Network(3, edges) == Network(3, np.empty((0, 2), dtype=np.int64))
        assert Network(3, np.array([[0, 1]], dtype=np.uint8)) == Network(3, [(0, 1)])

    def test_neighbor_queries(self):
        net = Network(4, [(0, 1), (0, 2), (3, 0)], directed=True)
        assert net.out_neighbors(0).tolist() == [1, 2]
        assert _in_neighbors(net, 0) == [3]
        assert net.out_degrees.tolist() == [2, 0, 0, 1]
        assert _in_degrees(net) == [1, 1, 1, 0]

    @given(graph=_simple_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_pure_python_reference(self, graph):
        n, edges, directed = graph
        net = Network(n, edges, directed=directed)
        arcs = _reference_arcs(edges, directed)
        ptr, idx = _reference_csr(n, arcs)
        assert net._out_ptr.tolist() == ptr
        assert net._out_idx.tolist() == idx
        assert _in_degrees(net) == [sum(v == w for _, v in arcs) for w in range(n)]
        for w in range(n):
            assert _in_neighbors(net, w) == [u for u, v in arcs if v == w]

    @given(graph=_simple_graphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_repeated_or_reversed_pair_rejected(self, graph, data):
        n, edges, directed = graph
        assume(edges)
        u, v = data.draw(st.sampled_from(edges))
        repeat = (u, v) if directed else data.draw(st.sampled_from([(u, v), (v, u)]))
        at = data.draw(st.integers(0, len(edges)))
        with pytest.raises(ValueError, match="duplicate"):
            Network(n, edges[:at] + [repeat] + edges[at:], directed=directed)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("n", [65536, 65537])  # the largest n with 32-bit keys, the next
    def test_keys_on_either_side_of_32_bits(self, n, directed):
        last = n - 1
        edges = [(last, 0), (1, last), (last - 1, last), (2, 3)]
        net = Network(n, edges, directed=directed)
        ptr, idx = _reference_csr(n, _reference_arcs(edges, directed))
        assert net._out_ptr.tolist() == ptr
        assert net._out_idx.tolist() == idx
        assert net._out_ptr.dtype == net._out_idx.dtype == np.int64
        with pytest.raises(ValueError, match="duplicate"):
            Network(n, edges + [(last - 1, last) if directed else (last, 1)], directed=directed)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_node(self, n, directed):
        net = Network(n, [], directed=directed)
        ptr, idx = _reference_csr(n, [])
        assert net._out_ptr.tolist() == ptr
        assert net._out_idx.tolist() == idx
        assert net._out_ptr.dtype == net._out_idx.dtype == np.int64

    def test_node_count_past_64_bit_keys_rejected(self):
        # 2**32 nodes need 32 bits per endpoint; one more node needs 33
        with pytest.raises(ValueError, match="at most 2\\*\\*32"):
            Network(2**32 + 1, [])

    def test_out_arcs_gathers_sorted_pairs(self):
        net = Network(4, [(0, 1), (0, 3), (2, 1)], directed=True)
        assert net.out_arcs(np.array([0, 2])).tolist() == [1, 3, 1]
        assert net.out_arcs(np.array([2])).tolist() == [1]
        assert net.out_arcs(np.array([1, 3])).size == 0

    @given(
        kind=st.sampled_from(["er", "ba", "star"]),
        n=st.integers(min_value=2, max_value=300),
        shape=st.floats(min_value=0.0, max_value=1.0),
        keep=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(kind="er", n=4000, shape=0.005, keep=0.5, seed=1)  # ~40,000 arcs gathered
    @example(kind="ba", n=3000, shape=1.0, keep=0.5, seed=2)
    @example(kind="star", n=20000, shape=1.0, keep=0.5, seed=3)
    @settings(max_examples=150, deadline=None)
    def test_out_arcs_equals_concatenated_neighbors(self, kind, n, shape, keep, seed):
        if kind == "er":
            net = generate_er(n, shape * (n - 1), seed=seed)
        elif kind == "ba":
            n0 = min(n - 1, 12)
            net = generate_ba(n, n0, max(1, round(shape * n0)), seed=seed)
        else:
            net = generate_star(n, shape, seed=seed)
        chosen = np.flatnonzero(np.random.default_rng(seed).random(n) < keep)
        zero_degree = np.flatnonzero(net.out_degrees == 0)
        for sources in (chosen, np.arange(0), np.arange(n), zero_degree):
            got = net.out_arcs(sources)
            parts = [net.out_neighbors(int(s)) for s in sources]
            want = np.concatenate([np.empty(0, dtype=np.int64), *parts])
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_single_source_arcs_are_a_read_only_view(self):
        net = generate_er(40, 6, seed=1)
        for u in range(net.n):
            arcs = net.out_arcs(np.array([u]))
            assert arcs.tolist() == sorted(v for s, v in edges(net) if s == u)
            with pytest.raises(ValueError, match="read-only"):
                arcs[:1] = 0


class TestGenerateEr:
    def test_zero_mean_degree_gives_empty_graph(self):
        net = generate_er(10, 0, seed=1)
        assert net.n == 10
        assert net.edge_count == 0

    def test_full_mean_degree_gives_complete_graph(self):
        net = generate_er(10, 9, seed=7)
        assert net.edge_count == 45
        assert net.out_degrees.tolist() == [9] * 10

    def test_mean_degree_concentrates(self):
        means = [degree_stats(generate_er(5000, 50, seed=s)).mean_out_degree for s in range(20)]
        average = sum(means) / len(means)
        assert abs(average - 50) < 1.0

    def test_edge_count_matches_binomial_mean(self):
        # E ~ Binomial(n(n-1)/2, p); check the 20-seed average within 3 sigma
        n, mean_degree = 400, 6
        pairs = n * (n - 1) // 2
        p = mean_degree / (n - 1)
        counts = [generate_er(n, mean_degree, seed=s).edge_count for s in range(20)]
        sigma = (pairs * p * (1 - p)) ** 0.5
        assert abs(sum(counts) / 20 - pairs * p) < 3 * sigma / (20**0.5)

    def test_invalid_mean_degree_rejected(self):
        with pytest.raises(ValueError):
            generate_er(10, -0.5, seed=1)
        with pytest.raises(ValueError):
            generate_er(10, 9.5, seed=1)

    @given(
        n=st.integers(2, 30),
        mean_degree=st.floats(0, 1, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_graph(self, n, mean_degree, seed):
        degree = mean_degree * (n - 1)
        assert generate_er(n, degree, seed) == generate_er(n, degree, seed)

    def test_five_node_graphs_follow_the_exact_law(self):
        """20,000 graphs of G(5, p) per p against the chance ``p**e (1 - p)**(10
        - e)`` of each of the 1,024 graphs with e edges, by a chi-square test
        with cells below 5 expected pooled; α = 1e-3 over both p,
        Bonferroni-corrected; then p = 0 and p = 1. The seeds are fixed; the
        test prints its worst p."""
        pairs = list(itertools.combinations(range(5), 2))
        threshold = ALPHA / 2
        worst = 1.0
        for seed, p in enumerate([0.3, 0.75]):
            law = {}
            for mask in range(2 ** len(pairs)):
                chosen = frozenset(pair for i, pair in enumerate(pairs) if mask >> i & 1)
                law[chosen] = p ** len(chosen) * (1 - p) ** (len(pairs) - len(chosen))
            rng = np.random.default_rng(20261022 + seed)
            observed = Counter(
                frozenset((u, v) for u, v in edges(generate_er(5, 4 * p, rng)) if u < v)
                for _ in range(RUNS)
            )
            stat, df = chi_square(law, observed, RUNS)
            chance = float(stats.chi2.sf(stat, df))
            print(f"G(5, {p}): chi2 {stat:.1f} on {df} df, p {chance:.3f}")
            assert chance > threshold, f"G(5, {p}): chi2 {stat:.1f} on {df} df, p {chance:.2e}"
            worst = min(worst, chance)
        print(f"worst p {worst:.3f}")
        # at p = 0 and p = 1 the law is one graph
        assert generate_er(5, 0.0, rng) == Network(5, [])
        assert generate_er(5, 4.0, rng) == _complete(5)


class TestErdosRenyi:
    """The G(n, p) law that sweeps run cascades on."""

    @pytest.mark.parametrize("n, mean_degree", [(1, 0.0), (10, -0.5), (10, 9.5)])
    def test_rejects_what_generate_er_rejects(self, n, mean_degree):
        with pytest.raises(ValueError) as ours:
            ErdosRenyi(n, mean_degree)
        with pytest.raises(ValueError) as theirs:
            generate_er(n, mean_degree, seed=1)
        assert str(ours.value) == str(theirs.value)

    def test_pair_probability(self):
        assert ErdosRenyi(41, 4.0).p == 0.1
        assert ErdosRenyi(10, 0.0).p == 0.0
        assert ErdosRenyi(10, 9.0).p == 1.0

    def test_reveal_rejects_bad_nodes(self, monkeypatch):
        """A cascade on the law runs from a drawn seed agent: any fixed seed,
        in range or not, is refused before a stream is built."""
        law = ErdosRenyi(10, 3.0)
        params = [IHCParams(0.5, 0.5, 0.5)]
        monkeypatch.setattr(cascade, "replication_streams", mock.Mock(side_effect=AssertionError))
        for seeds in [(-1,), (10,), (1.5,), (2, 3), (9,)]:
            with pytest.raises(ValueError, match="seeds must be None"):
                next(replicate(0, [()], 1, law, params, seeds=seeds))


class TestGenerateBa:
    def test_single_new_node_connects_to_whole_core(self):
        net = generate_ba(6, 5, 5, seed=1)
        assert net.out_neighbors(5).tolist() == [0, 1, 2, 3, 4]

    def test_edge_count_by_construction(self):
        # ring core of n0 nodes has n0 edges; each newcomer adds exactly k
        net = generate_ba(100, 10, 5, seed=3)
        assert net.edge_count == 10 + 90 * 5
        net = generate_ba(50, 2, 1, seed=3)
        assert net.edge_count == 1 + 48
        net = generate_ba(50, 1, 1, seed=3)
        assert net.edge_count == 49

    def test_heavier_tail_than_same_mean_er(self):
        for seed in range(20):
            net = generate_ba(5000, 50, 50, seed=seed)
            stats = degree_stats(net)
            assert int(net.out_degrees.max()) > 3 * stats.mean_out_degree

    def test_connected_when_core_connected(self):
        assert _is_connected(generate_ba(100, 5, 2, seed=11))
        assert _is_connected(generate_ba(100, 1, 1, seed=11))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            generate_ba(10, 3, 4, seed=1)  # k > n0
        with pytest.raises(ValueError):
            generate_ba(5, 5, 2, seed=1)  # n0 >= n
        with pytest.raises(ValueError):
            generate_ba(10, 3, 0, seed=1)

    def test_same_seed_same_graph(self):
        assert generate_ba(60, 4, 3, seed=9) == generate_ba(60, 4, 3, seed=9)

    @settings(max_examples=200, deadline=None)
    @given(
        params=_ba_params(),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([1, 2, 7, graph._CHUNK]),
    )
    @example(params=(30, 1, 1), seed=0, chunk=graph._CHUNK)  # one-node core
    @example(params=(2, 1, 1), seed=0, chunk=graph._CHUNK)  # no draw at all
    @example(params=(30, 2, 2), seed=0, chunk=graph._CHUNK)  # one-edge core, k = n0
    @example(params=(60, 20, 20), seed=0, chunk=graph._CHUNK)  # short first pools
    @example(params=(600, 3, 3), seed=0, chunk=graph._CHUNK)  # three chunks
    @example(params=(300, 12, 12), seed=0, chunk=graph._CHUNK)
    def test_equals_reference(self, params, seed, chunk):
        """The same graph, and the generator left where the reference leaves
        it, at the library's chunk size and at small ones."""
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(graph, "_CHUNK", chunk):
            got = generate_ba(*params, ours)
            want, _ = _chunked_reference_ba(*params, theirs)
        assert got == want
        assert got._out_ptr.dtype == want._out_ptr.dtype
        assert got._out_idx.dtype == want._out_idx.dtype
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "n, n0, k, least", [(60, 20, 20, 1), (2000, 50, 50, 1), (30, 1, 1, 0), (40, 4, 4, 0)]
    )
    def test_short_nodes_take_the_redraw_branch(self, n, n0, k, least):
        """Every pool past a node's first is one ``rng.integers`` call with a
        scalar bound, drawn only by a node whose pools so far are short."""
        for seed in range(3):
            rng = _CountingIntegers(np.random.PCG64(seed))
            want, extra = _chunked_reference_ba(n, n0, k, seed)
            assert generate_ba(n, n0, k, rng) == want
            assert extra >= least
            assert rng.scalar_calls == extra


class TestHalves:
    """``generate_ba``'s chunk call ``rng.integers(0, sizes[:, None], (rows,
    width))`` reads the generator as one scalar-bound call per row in turn
    would: 32-bit halves for bounds up to 2**32, a buffered half first, and
    whole words above."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize(
        # about half the halves are rejected at 2**31 + 1 and 3 * 2**30 + 1
        "size", [1, 2, 3, 200_000, 2**31 + 1, 3 * 2**30 + 1, 2**32]
    )
    def test_bounded_equals_integers(self, size, buffered):
        ours, theirs = _twins(11, buffered)
        # an odd width leaves a half buffered between rows; size + 1 past
        # 2**32 switches a row to whole words
        sizes = np.array([size, size + 1, size, max(size - 1, 1)])
        got = ours.integers(0, sizes[:, None], (len(sizes), 1501))
        want = [theirs.integers(0, bound, 1501) for bound in sizes.tolist()]
        assert got.tolist() == [row.tolist() for row in want]
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()


class TestGenerateStar:
    def test_full_reach(self):
        net = generate_star(11, 1.0, seed=1)
        assert net.edge_count == 10
        assert net.out_degrees[0] == 10
        assert net.out_degrees[1:].sum() == 0

    def test_zero_reach(self):
        assert generate_star(11, 0.0, seed=1).edge_count == 0

    def test_reach_count_rounds(self):
        net = generate_star(5000, 0.5, seed=2)
        assert net.out_degrees[0] == round(0.5 * 4999)
        net = generate_star(10, 0.25, seed=2)  # 0.25 * 9 = 2.25 -> 2
        assert net.out_degrees[0] == 2

    def test_leaves_drawn_without_replacement(self):
        net = generate_star(50, 0.6, seed=5)
        leaves = net.out_neighbors(0)
        assert len(set(leaves.tolist())) == len(leaves)
        assert 0 not in leaves


def _shuffled_dense_labels() -> str:
    """An edge list that uses every label 0..29, in shuffled order, with a
    self-loop and repeated edges."""
    rng = np.random.default_rng(11)
    label = rng.permutation(30)
    pairs = [(label[i], label[(i + 1) % 30]) for i in range(30)] + [(label[3], label[3])]
    pairs += [(label[1], label[0])] + [tuple(rng.integers(30, size=2)) for _ in range(20)]
    return "".join(f"{u} {v}\n" for u, v in pairs)


class TestLoadEdgeList:
    def test_two_line_undirected(self):
        net = load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert net.n == 3
        assert net.edge_count == 2
        assert not net.directed

    def test_self_loop_dropped_and_labels_remapped(self):
        net = load_edge_list(io.StringIO("5 5\n5 6\n"))
        assert net.n == 2
        assert net.edge_count == 1
        assert edges(net) == {(0, 1), (1, 0)}

    def test_duplicate_edges_dropped(self):
        net = load_edge_list(io.StringIO("0 1\n1 0\n0 1\n"))
        assert net.edge_count == 1
        directed = load_edge_list(io.StringIO("0 1\n1 0\n"), directed=True)
        assert directed.edge_count == 2

    def test_dropped_counts_logged(self, caplog):
        caplog.set_level(logging.INFO, logger="halting_cascade.graph")
        net = load_edge_list(io.StringIO("5 5\n0 1\n1 0\n0 1\n"))
        assert net.n == 3 and net.edge_count == 1
        assert "dropped 1 self-loops and 2 duplicate edges" in caplog.text
        caplog.clear()
        load_edge_list(io.StringIO("5 5\n0 1\n1 0\n0 1\n"), directed=True)
        assert "dropped 1 self-loops and 1 duplicate edges" in caplog.text

    def test_labels_beyond_int64_remapped_in_sorted_order(self):
        # raw labels that overflow or wrap in int64 must stay distinct nodes
        text = "18446744073709551615 -7\n-7 3\n18446744073709551619 3\n"
        net = load_edge_list(io.StringIO(text))
        assert net.n == 4  # -7, 3, 2**64 - 1, 2**64 + 3 -> 0, 1, 2, 3
        assert edges(net) == {(2, 0), (0, 2), (0, 1), (1, 0), (3, 1), (1, 3)}
        directed = load_edge_list(io.StringIO(text), directed=True)
        assert edges(directed) == {(2, 0), (0, 1), (3, 1)}

    def test_empty_edge_list_rejected(self):
        for text in ("", "# only a comment\n\n"):
            with pytest.raises(EdgeListError, match="no edges") as exc_info:
                load_edge_list(io.StringIO(text))
            assert exc_info.value.line_no is None

    def test_empty_edge_list_leaks_no_warning(self):
        # numpy's tokenizer warns on text without data; the loader must turn
        # that into its own error and let no warning reach the caller
        for text in ("", "# only a comment\n"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EdgeListError, match="no edges") as exc_info:
                    load_edge_list(io.StringIO(text))
            assert exc_info.value.line_no is None

    @pytest.mark.parametrize(
        "text, fast",
        [
            ("0 1\n# c\n\n  # c\n1 2 9 x\n-3\t+4\r\n", True),
            ("0 1 #x\n", True),
            ("0 1#x\n", False),  # a glued "#" starts a comment for numpy only
            ("0 1\n2\n", False),
            (f"{2**63} 1\n", False),
            ("1_0 1\n", False),
            ("0 1\r2 3\n", False),
            ("# only a comment\n", False),
        ],
    )
    def test_line_parser_only_where_numpy_differs(self, text, fast):
        assert (graph._read_labels(text) is not None) == fast

    @given(text=_edge_list_texts, directed=st.booleans())
    @settings(max_examples=400, deadline=None)
    @example(text="0 1#x\n", directed=False)
    @example(text="0 1\r2 3\n1 2\n", directed=True)
    @example(text=f"{2**64 - 1} {2**63}\n0 1\n", directed=False)
    @example(text="\u0661 1 # c\n+5 007\n1_0 3\n", directed=True)
    @example(text="# only a comment\n\n", directed=False)
    def test_equals_reference(self, text, directed):
        """Same network, or same error and line, read from a text handle
        (which keeps every carriage return) and from a file (universal
        newlines)."""
        _assert_same(
            _outcome(lambda: load_edge_list(io.StringIO(text), directed)),
            _outcome(lambda: _reference_load(io.StringIO(text), directed)),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.txt"
            path.write_text(text, encoding="utf-8", newline="")
            with open(path, "r", encoding="utf-8") as fh:
                want = _outcome(lambda: _reference_load(fh, directed))
            _assert_same(_outcome(lambda: load_edge_list(path, directed)), want)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize(
        "text, dense",
        [
            (_shuffled_dense_labels(), True),
            ("0 1\n1 3\n", False),  # a gap: 2 is missing
            ("1 2\n2 3\n", False),  # no 0
            ("-1 0\n0 1\n", False),
            ("0 7\n", False),  # the largest label past the label count
            (f"{2**64} 0\n0 1\n", False),  # past int64: the line parser's labels
        ],
        ids=["shuffled-dense", "gap", "no-zero", "negative", "sparse-top", "past-int64"],
    )
    def test_dense_labels_skip_the_relabel(self, text, dense, directed, monkeypatch):
        labels = graph._read_labels(text)
        assert (labels is not None and graph._dense(labels)) == dense
        got = load_edge_list(io.StringIO(text), directed)
        monkeypatch.setattr(graph, "_dense", lambda labels: False)  # every file takes np.unique
        assert got == load_edge_list(io.StringIO(text), directed)

    def test_self_loop_only_file_loads(self):
        net = load_edge_list(io.StringIO("5 5\n"))
        assert net.n == 1
        assert net.edge_count == 0

    def test_parse_error_reports_line_number(self):
        with pytest.raises(EdgeListError) as exc_info:
            load_edge_list(io.StringIO("a b\n"))
        assert exc_info.value.line_no == 1
        with pytest.raises(EdgeListError) as exc_info:
            load_edge_list(io.StringIO("0 1\n2\n"))
        assert exc_info.value.line_no == 2

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        # lines end as the text reader ends them: at \n, \r\n or a lone \r
        path = tmp_path / "bad.edges"
        cases = [
            (b"0 1\n1 \xff2\n", 2),
            (b"0 1\r\n1 2\r\n2 \xff3\r\n", 3),
            (b"0 1\r1 2\r\xff\n", 3),
        ]
        for raw, line_no in cases:
            path.write_bytes(raw)
            with pytest.raises(EdgeListError, match="not UTF-8") as exc_info:
                load_edge_list(path)
            assert exc_info.value.line_no == line_no

    def test_crlf_and_cr_line_ends_read_as_lf(self, tmp_path):
        path = tmp_path / "ends.edges"
        expected = load_edge_list(io.StringIO("# c\n0 1\n1 2\n2 0\n"))
        for end in (b"\r\n", b"\r"):
            path.write_bytes(end.join([b"# c", b"0 1", b"1 2", b"2 0", b""]))
            assert load_edge_list(path) == expected

    def test_comments_blanks_and_extra_columns(self):
        text = "# header\n\n0 1 1427840000 0.7\n1 2 1427840001\n"
        net = load_edge_list(io.StringIO(text))
        assert net.n == 3
        assert net.edge_count == 2

    def test_write_then_load_roundtrip(self):
        for directed in (False, True):
            # loading remaps to referenced labels, so isolates cannot
            # roundtrip: a full-reach star, and a BA graph, where every added
            # node takes edges and the core is a ring
            original = generate_star(20, 1.0, seed=3) if directed else generate_ba(20, 3, 2, seed=3)
            lines = [f"# {original!r}"]
            lines += [f"{u} {v}" for u, v in sorted(edges(original)) if directed or u < v]
            reloaded = load_edge_list(io.StringIO("\n".join(lines) + "\n"), directed=directed)
            assert reloaded == original


class TestDegreeStats:
    def test_complete_graph(self):
        stats = degree_stats(_complete(10))
        assert stats.mean_out_degree == 9
        assert stats.histogram == {9: 10}

    def test_empty_graph(self):
        stats = degree_stats(Network(10, [], directed=False))
        assert stats.mean_out_degree == 0
        assert stats.histogram == {0: 10}

    def test_star(self):
        stats = degree_stats(generate_star(11, 1.0, seed=1))
        assert stats.histogram == {10: 1, 0: 10}
        assert stats.mean_out_degree == pytest.approx(10 / 11)

    def test_histogram_counts_sum_to_n(self):
        net = generate_er(200, 7, seed=4)
        assert sum(degree_stats(net).histogram.values()) == net.n
