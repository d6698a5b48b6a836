"""Graph core: constructors, invariants, distances, and I/O formats."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from asymindex.graph import (GRAPH6_MAX_N, Graph, Graph6Error, bfs_distances,
                             cartesian_product, disjoint_union, distance,
                             from_edge_list, from_graph6, join, to_edge_list,
                             to_graph6)
from asymindex.families import path, cycle, complete, wheel


def reference_graph6(g: Graph) -> bytes:
    """Independent string-based encoder written straight from the format:
    size byte(s), then upper-triangle bits x(0,1), x(0,2), x(1,2), ...
    packed six per byte, each chunk plus 63."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    bits = ""
    for v in range(1, n):
        for u in range(v):
            bits += "1" if g.has_edge(u, v) else "0"
    bits += "0" * (-len(bits) % 6)
    body = "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))
    return (head + body).encode("ascii")


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = [p for p in pairs if draw(st.booleans())]
    return Graph.from_edges(n, chosen)


class TestConstruction:
    def test_invariants_enforced(self):
        assert Graph(2, [2, 1]) == complete(2)
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, [2, 0])
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, [1])
        with pytest.raises(ValueError, match="beyond"):
            Graph(2, [4, 0])

    def test_row_count_checked_when_rows_are_empty(self):
        # only leaving rows out gives the edgeless graph; an empty
        # sequence is a sequence of the wrong length
        for rows in ([], ()):
            with pytest.raises(ValueError, match="expected 3 adjacency rows, got 0"):
                Graph(3, rows)
        assert Graph(3) == Graph.empty(3)
        assert Graph(0, []) == Graph.empty(0)

    def test_from_edges_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="nonnegative"):
            Graph.from_edges(-3, [])

    def test_edit_errors_distinct(self):
        g = complete(2)
        with pytest.raises(ValueError, match="already present"):
            g.add_edge(0, 1)
        h = g.remove_edge(0, 1)
        assert h == Graph.empty(2)
        with pytest.raises(ValueError, match="not present"):
            h.remove_edge(0, 1)
        with pytest.raises(ValueError, match="out of range"):
            h.add_edge(0, 5)

    def test_immutability(self):
        g = path(4)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_degree_and_edges(self):
        w = wheel(7)
        assert w.degree(0) == 6
        assert sorted(w.degree_sequence(), reverse=True) == [6, 3, 3, 3, 3, 3, 3]
        assert w.edge_count == 12


class TestUnaryOps:
    def test_complement_empty_is_complete(self):
        assert Graph.empty(4).complement() == complete(4)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        assert g.complement().complement() == g

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, g):
        for v in range(g.n):
            assert not (g.rows[v] >> v) & 1
            assert g.rows[v] >> g.n == 0
            for u in range(v):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_relabel_roundtrip(self):
        g = wheel(6)
        perm = (3, 0, 4, 1, 5, 2)
        inv = tuple(perm.index(i) for i in range(6))
        assert g.relabel(perm).relabel(inv) == g


class TestBinaryOps:
    def test_join_wheel(self):
        assert join(Graph.empty(1), cycle(6)) == wheel(7)

    def test_union_of_singletons(self):
        assert disjoint_union(Graph.empty(1), Graph.empty(1)) == Graph.empty(2)

    @given(graphs(max_n=7), graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_edge_count_identities(self, g, h):
        assert disjoint_union(g, h).edge_count == g.edge_count + h.edge_count
        assert join(g, h).edge_count == g.edge_count + h.edge_count + g.n * h.n
        prod = cartesian_product(g, h)
        assert prod.edge_count == g.n * h.edge_count + h.n * g.edge_count

    def test_product_examples(self):
        assert cartesian_product(path(2), path(2)) == cycle(4).relabel((0, 1, 3, 2))
        prism = cartesian_product(path(2), cycle(3))
        assert (prism.n, prism.edge_count) == (6, 9)
        big = cartesian_product(cycle(4), cycle(5))
        assert (big.n, big.edge_count) == (20, 40)
        assert set(big.degree_sequence()) == {4}

    def test_complement_union_join_duality(self):
        g, h = path(3), complete(2)
        from asymindex.automorphism import are_isomorphic
        assert are_isomorphic(disjoint_union(g, h).complement(),
                              join(g.complement(), h.complement()))


class TestDistance:
    def test_examples(self):
        assert distance(path(6), 0, 5) == 5
        assert distance(cycle(8), 0, 5) == 3
        assert distance(disjoint_union(Graph.empty(1), Graph.empty(1)), 0, 1) == math.inf
        assert distance(cycle(8), 3, 3) == 0

    def test_bfs_matches_pairwise(self):
        g = wheel(9)
        for u in range(g.n):
            dist = bfs_distances(g, u)
            for v in range(g.n):
                assert dist[v] == distance(g, u, v)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            distance(path(3), 0, 7)


class TestGraph6:
    def test_singleton(self):
        assert to_graph6(Graph.empty(1)) == b"@"

    def test_k3_recomputed(self):
        k3 = complete(3)
        assert reference_graph6(k3) == b"Bw"
        assert to_graph6(k3) == b"Bw"

    def test_matches_reference_encoder(self):
        rng = random.Random(2024)
        for n in [0, 1, 2, 5, 20, 61, 62, 63, 64, 70, 130]:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [p for p in pairs if rng.random() < 0.3]
            g = Graph.from_edges(n, edges)
            assert to_graph6(g) == reference_graph6(g)

    def test_roundtrip_across_size_boundary(self):
        rng = random.Random(99)
        for n in range(1, 71):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [p for p in pairs if rng.random() < 0.4]
            g = Graph.from_edges(n, edges)
            assert from_graph6(to_graph6(g)) == g

    def test_roundtrip_on_all_six_vertex_classes(self, classes6):
        assert len(classes6) == 156
        for g in classes6:
            assert from_graph6(to_graph6(g)) == g

    def test_header_prefix_accepted(self):
        assert from_graph6(b">>graph6<<Bw") == complete(3)

    def test_malformed_inputs(self):
        with pytest.raises(Graph6Error, match="size field"):
            from_graph6(b"~B")
        with pytest.raises(Graph6Error, match="truncated"):
            from_graph6(b"E")
        with pytest.raises(Graph6Error, match="trailing garbage"):
            from_graph6(b"Bww")
        with pytest.raises(Graph6Error, match="padding"):
            # C_? has 3 bits of payload; set a padding bit on purpose.
            payload = 0b111001
            from_graph6(bytes([66, payload + 63]))
        with pytest.raises(Graph6Error, match="printable"):
            from_graph6(bytes([66, 200]))
        with pytest.raises(Graph6Error, match="empty"):
            from_graph6(b"")


class TestEdgeList:
    def test_roundtrip(self):
        g = wheel(6)
        assert from_edge_list(to_edge_list(g)) == g

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="vertex count"):
            from_edge_list("1 2\n")
        with pytest.raises(ValueError, match="bad edge line"):
            from_edge_list("3\n0 1 2\n")
        with pytest.raises(ValueError, match="empty"):
            from_edge_list("\n\n")
        with pytest.raises(ValueError, match="graph6 limit"):
            from_edge_list(f"{GRAPH6_MAX_N + 1}\n")
        with pytest.raises(ValueError, match="nonnegative"):
            from_edge_list("-3\n")
