import io
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halting_cascade.graph import (
    EdgeListError,
    Network,
    degree_stats,
    generate_ba,
    generate_er,
    generate_star,
    load_edge_list,
)


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


def _in_neighbors(net: Network, w: int) -> list[int]:
    """Sources of the arcs into ``w``, ascending, read off the out-arc CSR."""
    arcs_in = np.flatnonzero(net._out_idx == w)
    return (np.searchsorted(net._out_ptr, arcs_in, side="right") - 1).tolist()


def _in_degrees(net: Network) -> list[int]:
    return np.bincount(net._out_idx, minlength=net.n).tolist()


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
        assert net.edges() == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert net.edge_count == 2

    def test_directed_keeps_arcs_as_given(self):
        net = Network(3, [(0, 1), (1, 0), (1, 2)], directed=True)
        assert net.edges() == {(0, 1), (1, 0), (1, 2)}
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

    def test_out_arcs_gathers_sorted_pairs(self):
        net = Network(4, [(0, 1), (0, 3), (2, 1)], directed=True)
        assert net.out_arcs(np.array([0, 2])).tolist() == [1, 3, 1]
        assert net.out_arcs(np.array([2])).tolist() == [1]
        assert net.out_arcs(np.array([1, 3])).size == 0


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
        assert net.edges() == {(0, 1), (1, 0)}

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
        assert net.edges() == {(2, 0), (0, 2), (0, 1), (1, 0), (3, 1), (1, 3)}
        directed = load_edge_list(io.StringIO(text), directed=True)
        assert directed.edges() == {(2, 0), (0, 1), (3, 1)}

    def test_empty_edge_list_rejected(self):
        for text in ("", "# only a comment\n\n"):
            with pytest.raises(EdgeListError, match="no edges") as exc_info:
                load_edge_list(io.StringIO(text))
            assert exc_info.value.line_no is None

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

    def test_comments_blanks_and_extra_columns(self):
        text = "# header\n\n0 1 1427840000 0.7\n1 2 1427840001\n"
        net = load_edge_list(io.StringIO(text))
        assert net.n == 3
        assert net.edge_count == 2

    def test_write_then_load_roundtrip(self):
        for directed in (False, True):
            original = (
                # full reach so every node appears in some edge: loading
                # remaps to referenced labels, so isolates cannot roundtrip
                generate_star(20, 1.0, seed=3)
                if directed
                else generate_er(20, 4, seed=3)
            )
            buffer = io.StringIO()
            original.write_edge_list(buffer)
            reloaded = load_edge_list(io.StringIO(buffer.getvalue()), directed=directed)
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
