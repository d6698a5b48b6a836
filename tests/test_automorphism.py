"""Automorphism engine: asymmetry decisions, group orders, canonical
forms, transposable pairs.  Expected values come from brute-force
permutation loops or exhaustive enumeration, never from the engine."""

import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymindex import automorphism
from asymindex.graph import Graph, disjoint_union, join, pack_triangle_bits
from asymindex.automorphism import (_child, _first_target, _individualize,
                                    _leaf_bits, _pair_orbits, _refine,
                                    are_isomorphic,
                                    automorphism_group, canonical_form,
                                    can_transpose, cycles_str,
                                    find_nontrivial_automorphism,
                                    group_elements, invert,
                                    is_asymmetric, is_automorphism, compose,
                                    identity_perm, is_identity,
                                    transposable_pairs)
from asymindex.claims import _transposable_bound
from asymindex.families import (path, cycle, complete, star, wheel, circulant,
                                torus)
from asymindex.enumeration import all_pairs, graph_from_mask, nonisomorphic_graphs

from conftest import (brute_automorphism_count, brute_is_asymmetric,
                      perm_edge_action)


def figure_two_graph() -> Graph:
    """Hexagon plus the two chords that cut it into 3-, 3- and 4-cycles."""
    return cycle(6).add_edge(2, 4).add_edge(2, 5)


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def members(mask: int) -> list[int]:
    """Vertices of a bitmask cell, ascending, one bit test per position."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def unpruned_canonical_form(g: Graph) -> bytes:
    """Minimum leaf over the whole individualization-refinement tree,
    with no automorphism pruning: the definition canonical_form keeps."""
    def rec(cells):
        cells = _refine(g.rows, cells)
        i = _first_target(cells)
        if i < 0:
            return _leaf_bits(g.rows, cells, g.n)
        return min(rec(_individualize(cells, i, w)) for w in members(cells[i]))

    if g.n <= 1:
        return pack_triangle_bits(g.n, 0)
    return pack_triangle_bits(g.n, rec([(1 << g.n) - 1]))


def quadratic_leaf_bits(rows, cells, n: int) -> int:
    """Upper-triangle bits of the relabelled graph, one adjacency test per
    vertex pair: the reference for the O(n + m) row-shift encoding."""
    old = [members(c)[0] for c in cells]
    acc = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((rows[old[i]] >> old[j]) & 1)
    return acc


def full_queue_refine(rows, cells):
    """Equitable refinement with every cell queued (LIFO), every cell
    rescanned for each splitter and no early exit on a discrete partition:
    the reference for the incremental queue and the restricted scan."""
    cells = list(cells)
    queue = list(cells)
    while queue:
        splitter = queue.pop()
        out = []
        for cell in cells:
            groups = {}
            for v in members(cell):
                key = (rows[v] & splitter).bit_count()
                groups[key] = groups.get(key, 0) | 1 << v
            for key in sorted(groups):
                out.append(groups[key])
                if len(groups) > 1:
                    queue.append(groups[key])
        cells = out
    return cells


def is_equitable(rows, cells) -> bool:
    """Every vertex of a cell has the same neighbour count in each cell."""
    return all(len({sum((rows[v] >> w) & 1 for w in members(other))
                    for v in members(cell)}) == 1
               for cell in cells for other in cells)


def petersen() -> Graph:
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)])


class TestPermutations:
    def test_compose_invert(self):
        p, q = (1, 2, 0, 3), (0, 3, 2, 1)
        assert compose(p, invert(p)) == identity_perm(4)
        assert compose(p, q) == tuple(p[q[i]] for i in range(4))

    def test_cycles_str(self):
        assert cycles_str((1, 0, 2, 4, 3)) == "(0 1)(3 4)"
        assert cycles_str((0, 1, 2)) == "()"
        assert cycles_str((1, 0), base=1) == "(1 2)"


class TestIsAutomorphism:
    def test_rotation_of_cycle(self):
        assert is_automorphism(cycle(4), (1, 2, 3, 0))

    def test_leaf_swap_on_path3(self):
        assert is_automorphism(path(3), (2, 1, 0))

    def test_chorded_path_has_only_identity(self):
        g = path(6).add_edge(1, 3)
        hits = [p for p in itertools.permutations(range(6)) if is_automorphism(g, p)]
        assert hits == [identity_perm(6)]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            is_automorphism(path(3), (0, 1))
        with pytest.raises(ValueError):
            is_automorphism(path(3), (0, 0, 1))


class TestAsymmetryDecision:
    def test_empty5_has_witness(self):
        g = Graph.empty(5)
        p = find_nontrivial_automorphism(g)
        assert p is not None and not is_identity(p)
        assert is_automorphism(g, p)

    def test_figure_two_graph_is_asymmetric(self):
        assert find_nontrivial_automorphism(figure_two_graph()) is None

    def test_unique_seven_vertex_asymmetric_tree(self):
        # Enumerate labeled trees from Pruefer sequences (independent of the
        # library's tree generator), group into classes by brute-force
        # isomorphism, and check exactly one class is asymmetric.
        def tree_from_pruefer(seq):
            import heapq
            n = len(seq) + 2
            degree = [1] * n
            for x in seq:
                degree[x] += 1
            edges = []
            leaves = [v for v in range(n) if degree[v] == 1]
            heapq.heapify(leaves)
            for x in seq:
                leaf = heapq.heappop(leaves)
                edges.append((leaf, x))
                degree[x] -= 1
                if degree[x] == 1:
                    heapq.heappush(leaves, x)
            u = heapq.heappop(leaves)
            v = heapq.heappop(leaves)
            edges.append((u, v))
            return Graph.from_edges(n, [tuple(sorted(e)) for e in edges])

        reps = []
        for seq in itertools.product(range(7), repeat=5):
            t = tree_from_pruefer(list(seq))
            if not any(are_isomorphic(t, r) for r in reps):
                reps.append(t)
        assert len(reps) == 11
        asym = [t for t in reps if brute_is_asymmetric(t)]
        assert len(asym) == 1
        assert find_nontrivial_automorphism(asym[0]) is None

    def test_small_orders_never_asymmetric(self):
        for n in range(2, 5):
            pairs = all_pairs(n)
            for mask in range(1 << len(pairs)):
                assert not is_asymmetric(graph_from_mask(n, mask, pairs))

    def test_k1(self):
        assert is_asymmetric(Graph.empty(1))
        assert is_asymmetric(Graph.empty(0))

    def test_engine_matches_brute_force_on_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(120):
            g = random_graph(rng.randrange(2, 7), rng, rng.uniform(0.2, 0.8))
            assert is_asymmetric(g) == brute_is_asymmetric(g)

    def test_planted_twins_are_symmetric(self):
        # b copies a's row (open twins), or copies it and also gets the
        # edge a-b (closed twins); the transposition (a b) then swaps them.
        rng = random.Random(1717)
        for trial in range(80):
            n = 7 if trial % 4 == 0 else rng.randrange(7, 41)
            g = random_graph(n, rng, rng.uniform(0.1, 0.9))
            a, b = rng.sample(range(n), 2)
            edges = [(u, v) for u, v in g.edges() if b not in (u, v)]
            edges += [(min(b, w), max(b, w)) for w in g.neighbors(a) if w != b]
            if trial % 2:
                edges.append((min(a, b), max(a, b)))
            h = Graph.from_edges(n, edges)
            swap = list(range(n))
            swap[a], swap[b] = b, a
            assert is_automorphism(h, tuple(swap))
            assert not is_asymmetric(h)
            if n == 7:
                assert not brute_is_asymmetric(h)


class TestGroup:
    @pytest.mark.parametrize("g,order", [
        (cycle(6), 12), (complete(4), 24), (wheel(7), 12),
        (star(6), 120), (path(5), 2),
    ])
    def test_orders_match_brute_force(self, g, order):
        rep = automorphism_group(g)
        assert rep.order == order == brute_automorphism_count(g)

    def test_wheel_orbits(self):
        rep = automorphism_group(wheel(7))
        assert rep.orbits == ((0,), (1, 2, 3, 4, 5, 6))

    def test_cycle_orbit_is_single_cell(self):
        assert automorphism_group(cycle(6)).orbits == ((0, 1, 2, 3, 4, 5),)

    def test_generators_are_automorphisms(self):
        for g in (cycle(9), wheel(8), star(7), complete(5)):
            rep = automorphism_group(g)
            assert all(is_automorphism(g, p) for p in rep.generators)
            assert not any(is_identity(p) for p in rep.generators)

    def test_report_invariants(self):
        g = figure_two_graph()
        rep = automorphism_group(g)
        assert rep.is_asymmetric and rep.order == 1
        assert rep.generators == ()
        assert all(len(o) == 1 for o in rep.orbits)

    def test_complement_has_same_group(self, classes6):
        for g in classes6:
            assert automorphism_group(g).order == automorphism_group(g.complement()).order

    def test_random_seven_vertex_orders(self):
        rng = random.Random(7777)
        for _ in range(25):
            g = random_graph(7, rng, rng.uniform(0.2, 0.8))
            assert automorphism_group(g).order == brute_automorphism_count(g)

    def test_consistent_on_seven_vertex_classes(self):
        # The generators close to a group of the reported order; the
        # witness exists exactly when the order exceeds 1; and the sha256
        # of (order, orbits) was recorded with the stabilizer-chain engine
        # that built the group from one pairing search per candidate.
        digest = hashlib.sha256()
        for g in nonisomorphic_graphs(7):
            rep = automorphism_group(g)
            for p in rep.generators:
                assert is_automorphism(g, p) and not is_identity(p)
            assert len(group_elements(rep.generators, 7)) == rep.order
            witness = find_nontrivial_automorphism(g)
            assert is_asymmetric(g) == (rep.order == 1)
            if rep.order == 1:
                assert witness is None
            else:
                assert is_automorphism(g, witness) and not is_identity(witness)
            digest.update(repr((rep.order, rep.orbits)).encode())
        assert digest.hexdigest() == ("34aeb6def1e74c7dbe2573b587895240"
                                      "535e7d228b0e85f7a04e8eb3745ea163")

    def test_large_group_order_exact(self):
        assert automorphism_group(Graph.empty(12)).order == 479001600  # 12!
        assert automorphism_group(complete(12)).order == 479001600

    def test_disconnected_orders(self):
        two_triangles = disjoint_union(cycle(3), cycle(3))
        assert automorphism_group(two_triangles).order == 72  # (3!)^2 * 2
        assert brute_automorphism_count(two_triangles) == 72
        mixed = disjoint_union(path(3), cycle(3))
        assert automorphism_group(mixed).order == 12  # 2 * 6, no swap
        lonely = disjoint_union(cycle(6), Graph.empty(2))
        assert automorphism_group(lonely).order == 24  # dihedral * swap


class TestIncrementalRefinement:
    """Refining an individualized equitable partition from its remainder
    cell alone, and stopping once it is discrete, must give exactly the
    full-queue result without that stop."""

    @staticmethod
    def check_children(g: Graph, cells) -> None:
        i = _first_target(cells)
        for v in members(cells[i]):
            child = _individualize(cells, i, v)
            got = _child(g.rows, cells, i, v)
            assert got == _refine(g.rows, child) == full_queue_refine(g.rows, child)
            assert is_equitable(g.rows, got)

    @staticmethod
    def graphs(classes6):
        rng = random.Random(606)
        # Above 64 vertices most cells miss a splitter's neighbourhood.
        flipped = [g.remove_edge(*next(g.edges()))
                   for g in (torus(6, 7), torus(10, 11), cycle(70))]
        return (list(classes6)
                + [random_graph(rng.randrange(7, 13), rng, rng.uniform(0.2, 0.8))
                   for _ in range(40)]
                + [petersen(), torus(3, 4)] + flipped)

    def test_root_and_one_child(self, classes6):
        checked = 0
        for g in self.graphs(classes6):
            root = _refine(g.rows, [(1 << g.n) - 1])
            assert root == full_queue_refine(g.rows, [(1 << g.n) - 1])
            i = _first_target(root)
            if i < 0:
                continue
            self.check_children(g, root)
            child = _child(g.rows, root, i, members(root[i])[0])
            if _first_target(child) >= 0:
                self.check_children(g, child)
                checked += 1
        assert checked > 100


class TestEngineOutputs:
    def test_engine_outputs_pinned(self):
        # sha256 over automorphism_group (order, generators, orbits),
        # find_nontrivial_automorphism and transposable_pairs; `aut --json`
        # and the ledger's evidence print these, so a change in the search
        # order that alters a generator or witness fails here.
        digest = hashlib.sha256()
        graphs = list(nonisomorphic_graphs(7)) + [
            torus(6, 7), star(9), complete(8), wheel(9), petersen(),
            circulant(17, (1, 4))]
        for g in graphs:
            rep = automorphism_group(g)
            digest.update(repr((rep.order, rep.generators, rep.orbits,
                                find_nontrivial_automorphism(g),
                                sorted(transposable_pairs(g)))).encode())
        assert digest.hexdigest() == ("ed4fe806ad5e30d11f1173aeedd84e8e"
                                      "7962f2eec3b8e9d11b575be08a8680fb")


class TestCanonicalForm:
    def test_path_label_invariance(self):
        base = canonical_form(path(4))
        for perm in itertools.permutations(range(4)):
            assert canonical_form(path(4).relabel(perm)) == base

    def test_self_complementary_c5(self):
        assert are_isomorphic(cycle(5), cycle(5).complement())

    def test_circulant_random_relabelings(self):
        g = circulant(16, (1, 4))
        rng = random.Random(123)
        for _ in range(100):
            perm = list(range(16))
            rng.shuffle(perm)
            assert are_isomorphic(g, g.relabel(tuple(perm)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_label_invariance(self, data):
        n = data.draw(st.integers(min_value=1, max_value=9))
        pairs = all_pairs(n)
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        g = graph_from_mask(n, mask, pairs)
        perm = tuple(data.draw(st.permutations(range(n))))
        assert canonical_form(g) == canonical_form(g.relabel(perm))

    def test_distinguishes_nonisomorphic(self, classes6):
        keys = {canonical_form(g) for g in classes6}
        assert len(keys) == 156

    def test_symmetric_extremes(self):
        for n in (8, 9, 10):
            assert canonical_form(Graph.empty(n)) != canonical_form(complete(n))
            assert are_isomorphic(Graph.empty(n).complement(), complete(n))

    def test_leaf_bits_match_pairwise_reference(self):
        rng = random.Random(4501)
        for n in range(2, 46):
            for _ in range(4):
                g = random_graph(n, rng, rng.uniform(0.05, 0.95))
                order = list(range(n))
                rng.shuffle(order)
                cells = [1 << v for v in order]
                assert (_leaf_bits(g.rows, cells, n)
                        == quadratic_leaf_bits(g.rows, cells, n))

    def test_matches_unpruned_search_on_seven_vertex_classes(self):
        for g in nonisomorphic_graphs(7):
            assert canonical_form(g) == unpruned_canonical_form(g)

    @pytest.mark.parametrize("g", [
        petersen(), circulant(13, (1, 3, 4)),                  # Paley(13)
        join(Graph.empty(4), Graph.empty(4)),                  # K_{4,4}
        disjoint_union(disjoint_union(cycle(4), cycle(4)), cycle(4)),
        disjoint_union(disjoint_union(cycle(3), cycle(3)), cycle(3)),
        disjoint_union(disjoint_union(path(2), cycle(3)), cycle(4)),
        torus(3, 4), Graph.empty(7),
    ], ids=["petersen", "paley13", "k44", "3c4", "3k3", "k2+k3+c4", "torus3x4",
            "empty7"])
    def test_matches_unpruned_search_where_pruning_fires(self, g):
        expected = unpruned_canonical_form(g)
        for seed in range(16):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            assert canonical_form(g.relabel(tuple(perm))) == expected

    def test_seven_vertex_bytes_pinned(self):
        # sha256 of the canonical bytes of every 7-vertex class and of one
        # seeded relabelling of each, recorded before pruning was added.
        rng = random.Random(2018)
        digest = hashlib.sha256()
        for g in nonisomorphic_graphs(7):
            perm = list(range(7))
            rng.shuffle(perm)
            digest.update(canonical_form(g))
            digest.update(canonical_form(g.relabel(tuple(perm))))
        assert digest.hexdigest() == ("88e24bb033ce9342a03930e3e368508b"
                                      "b7f944ead316b69a1f7587c77e99bff7")

    def test_needs_no_group_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("canonical_form must not build the group")

        for name in ("group_elements", "subgroup_elements", "automorphism_group"):
            monkeypatch.setattr(automorphism, name, forbidden)
        rng = random.Random(10)
        for g in (Graph.empty(10), complete(10), star(11)):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(tuple(perm))) == canonical_form(g)


class TestTransposablePairs:
    def test_cycle_all_pairs(self):
        assert transposable_pairs(cycle(6)) == set(all_pairs(6))

    def test_path4(self):
        assert transposable_pairs(path(4)) == {(0, 3), (1, 2)}

    def test_asymmetric_graph_has_none(self):
        assert transposable_pairs(figure_two_graph()) == set()

    def test_matches_brute_force(self, classes6):
        rng = random.Random(31)
        graphs = [random_graph(rng.randrange(4, 7), rng) for _ in range(20)]
        for g in graphs + list(classes6):
            expected = set()
            for p in itertools.permutations(range(g.n)):
                if is_automorphism(g, p):
                    for u in range(g.n):
                        if p[u] != u and p[p[u]] == u:
                            expected.add(tuple(sorted((u, p[u]))))
            assert transposable_pairs(g) == expected

    def test_orbit_without_swaps(self):
        # A triangle whose edges carry chiral gadgets: its group has order 3
        # (brute force), so it has no involution, yet 0, 1, 2 share an orbit.
        g = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4),
                                 (2, 4), (0, 5), (2, 5), (3, 6), (1, 6), (4, 7),
                                 (2, 7), (5, 8), (0, 8)])
        assert brute_automorphism_count(g) == 3
        assert (0, 1, 2) in automorphism_group(g).orbits
        assert transposable_pairs(g) == set()

    def test_can_transpose_validates(self):
        with pytest.raises(ValueError):
            can_transpose(path(4), 1, 1)


class TestPairOrbits:
    def test_single_flip_orbits_on_six_vertex_classes(self, classes6):
        # Independent asymmetry oracle: a labeled 6-vertex graph is
        # asymmetric iff the S_6 action gives it 720 distinct images.
        table = perm_edge_action(6)
        pow2 = np.left_shift(1, np.arange(15, dtype=np.int64))

        def brute_asymmetric(mask: int) -> bool:
            bits = (mask >> np.arange(15, dtype=np.int64)) & 1
            return len(np.unique(bits[table] @ pow2)) == 720

        pairs = all_pairs(6)
        for g in classes6:
            gens = automorphism_group(g).generators
            orbits = _pair_orbits(pairs, gens)
            assert sum(len(o) for o in orbits) == 15
            assert set().union(*orbits) == set(pairs)
            for orbit in orbits:
                for p in gens:
                    assert {tuple(sorted((p[u], p[v]))) for u, v in orbit} == orbit
            hits = 0
            for orbit in orbits:
                u, v = min(orbit)
                h = g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
                if is_asymmetric(h):
                    hits += len(orbit)
            mask = sum(1 << i for i, p in enumerate(pairs) if g.has_edge(*p))
            assert hits == sum(brute_asymmetric(mask ^ (1 << i)) for i in range(15))


class TestCliqueBound:
    # Lem1.4's floor((t-1)/2), as the claim ledger computes it
    def test_star_bound(self):
        assert _transposable_bound(star(6)) == 2

    def test_asymmetric_bound_zero(self):
        assert _transposable_bound(figure_two_graph()) == 0

    def test_c8_overreach_documented(self):
        # all 8 cycle vertices are pairwise transposable, so the stated
        # bound is 3 even though two flips suffice; recorded, not hidden.
        assert _transposable_bound(cycle(8)) == 3

    def test_k6(self):
        assert _transposable_bound(complete(6)) == 2


class TestPreservationProperties:
    def test_complement_preserves_asymmetry(self, classes6):
        for g in classes6:
            assert is_asymmetric(g) == is_asymmetric(g.complement())

    def test_join_and_union_of_distinct_asymmetric(self, classes6):
        asym = [g for g in classes6 if is_asymmetric(g)]
        assert len(asym) == 8
        for i, g in enumerate(asym):
            for j, h in enumerate(asym):
                if i != j:
                    assert is_asymmetric(join(g, h))
                    assert is_asymmetric(disjoint_union(g, h))
