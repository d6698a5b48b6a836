"""Automorphism engine: asymmetry decisions, group orders, canonical
forms, transposable pairs.  Expected values come from brute-force
permutation loops or exhaustive enumeration, never from the engine."""

import hashlib
import inspect
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymindex import automorphism
from asymindex.graph import (Graph, disjoint_union, join, pack_triangle_bits,
                            triangle_bits)
from asymindex.automorphism import (_child, _class_search, _first_target,
                                    _individualize, _orbit_partition,
                                    _pair_index, _pair_maps, _perm, _refine,
                                    _search, _twin_pairs,
                                    are_isomorphic,
                                    automorphism_group, canonical_form,
                                    can_transpose, cycles_str,
                                    find_nontrivial_automorphism, invert,
                                    is_asymmetric, is_automorphism, compose,
                                    identity_perm, is_identity,
                                    transposable_pairs)
from asymindex.claims import _transposable_bound
from asymindex.families import (path, cycle, complete, star, wheel, circulant,
                                split, torus)
from asymindex.enumeration import all_pairs, graph_from_mask, nonisomorphic_graphs

from conftest import (bfs_closure, brute_automorphism_count,
                      brute_is_asymmetric, perm_edge_action)


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
            return triangle_bits(g.rows, [c.bit_length() - 1 for c in cells])
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


def walked_base(g: Graph, generators) -> tuple[int, ...]:
    """The base by a walk of its own: from the refined root, individualize
    the least vertex of the first smallest non-singleton cell while some
    generator fixing the earlier base points moves a vertex."""
    cells = _refine(g.rows, [(1 << g.n) - 1])
    base: tuple[int, ...] = ()
    while generators:
        i = _first_target(cells)
        b = members(cells[i])[0]
        base += (b,)
        generators = [s for s in generators if s[b] == b]
        cells = _child(g.rows, cells, i, b)
    return base


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
            assert len(bfs_closure(rep.generators, 7)) == rep.order
            witness = find_nontrivial_automorphism(g)
            assert is_asymmetric(g) == (rep.order == 1)
            if rep.order == 1:
                assert witness is None
            else:
                assert is_automorphism(g, witness) and not is_identity(witness)
            digest.update(repr((rep.order, rep.orbits)).encode())
        assert digest.hexdigest() == ("34aeb6def1e74c7dbe2573b587895240"
                                      "535e7d228b0e85f7a04e8eb3745ea163")

    def test_base_is_the_walked_first_path(self):
        graphs = [*nonisomorphic_graphs(7), star(9), complete(8), torus(6, 7),
                  cycle(12), Graph.empty(60)]
        for g in graphs:
            rep = automorphism_group(g)
            assert rep.base == walked_base(g, rep.generators)

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_vertex(self, n):
        # the search's partition of no vertices is one leaf, and one
        # vertex is one singleton cell: the trivial group, no special case
        g = Graph.empty(n)
        rep = automorphism_group(g)
        assert (rep.is_asymmetric, rep.order, rep.generators, rep.base) == (
            True, 1, (), ())
        assert rep.orbits == tuple((v,) for v in range(n))
        assert find_nontrivial_automorphism(g) is None
        assert canonical_form(g) == pack_triangle_bits(n, 0)

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

    def test_one_vertex_splitter_step(self):
        # The root partition and each [u | v | rest] of can_transpose, u < v,
        # on every 7-vertex class; on the first seven of them, a line
        # tracer counts the splits that the one-vertex branch makes.
        lines, first = inspect.getsourcelines(_refine)
        split = first + next(i for i, line in enumerate(lines)
                             if "out += (cell ^ touched, touched)" in line)
        taken = 0

        def local(frame, event, arg):
            nonlocal taken
            taken += event == "line" and frame.f_lineno == split
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code is _refine.__code__ else None

        everyone = (1 << 7) - 1
        partitions = [[everyone]] + [[1 << u, 1 << v, everyone ^ 1 << u ^ 1 << v]
                                     for u, v in itertools.combinations(range(7), 2)]
        outer = sys.gettrace()
        for g in nonisomorphic_graphs(7):
            for j, cells in enumerate(partitions):
                sys.settrace(tracer if j < 7 else outer)
                try:
                    got = _refine(g.rows, cells)
                finally:
                    sys.settrace(outer)
                assert got == full_queue_refine(g.rows, cells)
        assert taken > 1000


class TestEngineOutputs:
    def test_engine_outputs_pinned(self):
        # sha256 over automorphism_group (order, generators, orbits),
        # find_nontrivial_automorphism and transposable_pairs; `aut --json`
        # and the ledger's evidence print these, so a change in the search
        # order that alters a generator or witness fails here.  Recorded
        # once every search started from its twin transpositions.
        digest = hashlib.sha256()
        families = [torus(6, 7), star(9), complete(8), wheel(9), petersen(),
                    circulant(17, (1, 4))]
        for g in list(nonisomorphic_graphs(7)) + families:
            rep = automorphism_group(g)
            assert all(is_automorphism(g, p) for p in rep.generators)
            digest.update(repr((rep.order, rep.generators, rep.orbits,
                                find_nontrivial_automorphism(g),
                                sorted(transposable_pairs(g)))).encode())
        assert digest.hexdigest() == ("558e450985509ca5cdc042345850ba94"
                                      "38100021efea404feb05c3165b988c3a")
        # The pinned generators generate a group of the reported order:
        # the families above, and seeded relabellings of twin-heavy ones.
        rng = random.Random(2828)
        k222 = join(join(Graph.empty(2), Graph.empty(2)), Graph.empty(2))
        for g in (split(5, 3), k222, Graph.empty(7)):
            perm = list(range(g.n))
            rng.shuffle(perm)
            families.append(g.relabel(tuple(perm)))
        for g in families:
            rep = automorphism_group(g)
            assert len(bfs_closure(rep.generators, g.n)) == rep.order


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
        # A leaf's shuffled order, and the identity order to_graph6 uses.
        rng = random.Random(4501)
        for n in range(46):
            for _ in range(4):
                g = random_graph(n, rng, rng.uniform(0.05, 0.95))
                order = list(range(n))
                rng.shuffle(order)
                for o in (order, range(n)):
                    assert (triangle_bits(g.rows, o)
                            == quadratic_leaf_bits(g.rows, [1 << v for v in o], n))

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

    def test_orbit_work_is_linear_on_large_groups(self, monkeypatch):
        # A node grows its siblings' orbit child by child and rebuilds it
        # only after new automorphisms, instead of rebuilding it for every
        # child: O(n) orbit closures on these groups, not O(n^2).
        calls = 0
        orbit = automorphism._orbit

        def counted(*args):
            nonlocal calls
            calls += 1
            return orbit(*args)

        monkeypatch.setattr(automorphism, "_orbit", counted)
        for g in (Graph.empty(60), star(60), complete(40)):
            calls = 0
            canonical_form(g)
            assert calls <= 4 * g.n


class TestTwinSeeds:
    """Searches seeded with twin transpositions against unseeded ones."""

    @staticmethod
    def inputs():
        """(graph, partition) pairs: the unit partition of every 7-vertex
        class, of one seeded relabelling of each and of twin-heavy
        families, plus [u | v | rest] partitions as can_transpose makes."""
        rng = random.Random(2424)
        graphs = []
        for g in nonisomorphic_graphs(7):
            perm = list(range(7))
            rng.shuffle(perm)
            graphs += [g, g.relabel(tuple(perm))]
        k222 = join(join(Graph.empty(2), Graph.empty(2)), Graph.empty(2))
        families = [star(9), complete(8), Graph.empty(7), split(5, 3),
                    wheel(9), k222]
        out = [(g, [(1 << g.n) - 1]) for g in graphs + families]
        for g in families + graphs[::97]:
            everyone = (1 << g.n) - 1
            for u, v in rng.sample(list(itertools.combinations(range(g.n), 2)), 4):
                out += [(g, [1 << u, 1 << v, everyone ^ 1 << u ^ 1 << v]),
                        (g, [1 << v, 1 << u, everyone ^ 1 << u ^ 1 << v])]
        return out

    def test_seeds_keep_the_leaf_and_the_group(self, monkeypatch):
        seeded_some = 0
        for g, cells in self.inputs():
            seeds = [_perm(g.n, (u, v), (v, u))
                     for u, v in _twin_pairs(g.rows, g.n, cells)]
            for s in seeds:
                assert is_automorphism(g, s)
                assert all(sum(1 << s[v] for v in members(c)) == c for c in cells)
            seeded_leaf, seeded_gens, _ = _search(g.rows, g.n, cells)
            with monkeypatch.context() as m:    # the unseeded reference
                m.setattr(automorphism, "_twin_pairs", lambda *a: [])
                leaf, gens, _ = _search(g.rows, g.n, cells)
            assert seeded_leaf == leaf
            assert (len(bfs_closure(seeded_gens, g.n))
                    == len(bfs_closure(gens, g.n)))
            seeded_some += bool(seeds)
        assert seeded_some > 1000

    def test_twin_classes_cost_one_path(self, monkeypatch):
        # Without the seeds, each twin costs a sibling leaf: 66, 78 and 78
        # refinements instead of at most one per vertex.
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _refine(*args)

        monkeypatch.setattr(automorphism, "_refine", counted)
        for g in (star(12), complete(12), Graph.empty(12)):
            calls = 0
            canonical_form(g)
            assert calls <= 12

    def test_twin_witnesses_need_no_refinement(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a twin swap is a witness before the root")

        monkeypatch.setattr(automorphism, "_refine", forbidden)
        for g in (star(9), complete(8), split(5, 3), Graph.empty(200)):
            p = find_nontrivial_automorphism(g)
            assert p is not None and not is_identity(p)
            assert is_automorphism(g, p)

    def test_twins_answer_asymmetry_without_a_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("twins need no tree search")

        monkeypatch.setattr(automorphism, "_search", forbidden)
        for g in (star(9), complete(8), split(5, 3), path(3).add_edge(0, 2),
                  disjoint_union(path(2), path(3))):
            assert not is_asymmetric(g)


class TestClassSearch:
    """The walk's twin-quotient search: its key against ``canonical_form``,
    its generators against ``is_automorphism`` and, closed by
    ``bfs_closure``, against the group order."""

    @staticmethod
    def inputs():
        rng = random.Random(2727)
        graphs = []
        for g in nonisomorphic_graphs(7):
            perm = list(range(7))
            rng.shuffle(perm)
            graphs += [g, g.relabel(tuple(perm))]
        # P_5 + P_7, a remove-only child of C_12; and open twins 0, 1 with
        # closed twins 3, 4 around vertex 2.
        forest = cycle(12).remove_edge(0, 1).remove_edge(5, 6)
        both = Graph.from_edges(5, [(0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        return graphs + [star(9), complete(8), split(5, 3), Graph.empty(7),
                         complete(7), forest, both]

    def test_keys_and_generators(self):
        forms: dict = {}                # (n, key) to canonical forms
        keys: dict = {}                 # canonical form to keys
        for g in self.inputs():
            key, gens = _class_search(g.rows, g.n)
            form = canonical_form(g)
            forms.setdefault((g.n, key), set()).add(form)
            keys.setdefault(form, set()).add(key)
            assert all(is_automorphism(g, p) for p in gens)
            assert len(bfs_closure(gens, g.n)) == automorphism_group(g).order
        assert all(len(v) == 1 for v in forms.values())
        assert all(len(v) == 1 for v in keys.values())
        assert len(keys) == 1044 + 5     # E_7 and K_7 are 7-vertex classes

    def test_two_generators_per_twin_class(self):
        # Each quotient is one vertex or two of distinct colours, so it has
        # no generators; a swap and a cycle per class still give every
        # pair orbit: inside each class, and between two classes.
        for g, classes, pair_orbits in ((Graph.empty(200), 1, 1), (star(60), 1, 2),
                                        (split(30, 30), 2, 3)):
            gens = _class_search(g.rows, g.n)[1]
            assert len(gens) <= 2 * classes
            assert all(is_automorphism(g, p) for p in gens)
            pairs, index = _pair_index(g.n)
            assert len(_orbit_partition(range(len(pairs)),
                                        _pair_maps(gens, pairs, index))) == pair_orbits


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
            for u, v in itertools.combinations(range(g.n), 2):
                assert can_transpose(g, u, v) == ((u, v) in expected)
                assert can_transpose(g, v, u) == ((u, v) in expected)

    def test_one_search_per_swap_question(self, monkeypatch):
        # Each answer is read off the generators of one tree search.
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return _search(*args, **kwargs)

        monkeypatch.setattr(automorphism, "_search", counted)
        for ask in (lambda: transposable_pairs(cycle(8)),
                    lambda: transposable_pairs(star(7)),
                    lambda: can_transpose(cycle(8), 0, 4)):
            calls = 0
            assert ask()
            assert calls == 1

    def test_orbit_without_swaps(self):
        # A triangle whose edges carry chiral gadgets: its group has order 3
        # (brute force), so it has no involution, yet 0, 1, 2 share an orbit.
        g = Graph.from_edges(9, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4),
                                 (2, 4), (0, 5), (2, 5), (3, 6), (1, 6), (4, 7),
                                 (2, 7), (5, 8), (0, 8)])
        assert brute_automorphism_count(g) == 3
        assert (0, 1, 2) in automorphism_group(g).orbits
        assert transposable_pairs(g) == set()

    @pytest.mark.parametrize("g", [complete(2), Graph.empty(2)],
                             ids=["k2", "empty2"])
    def test_two_vertices_leave_an_empty_rest_cell(self, g):
        assert can_transpose(g, 0, 1) and can_transpose(g, 1, 0)

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
            maps = _pair_maps(gens, *_pair_index(6))
            for p, m in zip(gens, maps):
                assert [pairs[j] for j in m] == \
                    [tuple(sorted((p[u], p[v]))) for u, v in pairs]
            orbits = _orbit_partition(range(15), maps)
            assert sorted(i for o in orbits for i in o) == list(range(15))
            assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
            for orbit in orbits:
                assert list(orbit) == sorted(orbit)
                for m in maps:
                    assert {m[i] for i in orbit} == set(orbit)
            hits = 0
            for orbit in orbits:
                u, v = pairs[orbit[0]]
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
