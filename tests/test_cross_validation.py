"""Cross-validation against networkx's VF2 isomorphism machinery —
an independent algorithm family, so agreement here is real evidence."""

import random
from itertools import combinations, islice

import networkx as nx
import pytest

from asymindex.graph import Graph
from asymindex.automorphism import (_closure, are_isomorphic,
                                    automorphism_group, group_elements,
                                    identity_perm,
                                    is_asymmetric, subgroup_elements)
from asymindex.enumeration import all_pairs, graph_from_mask
from asymindex.claims import verify
from asymindex.families import complete, cycle, star, torus, wheel
from asymindex.search import FlipSet, apply_flips, asymmetric_index

from test_search import reference_index


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


class TestIsomorphismAgainstVf2:
    def test_random_pairs(self):
        rng = random.Random(314159)
        agree = 0
        for _ in range(150):
            n = rng.randrange(1, 9)
            pairs = all_pairs(n)
            g = graph_from_mask(n, rng.randrange(1 << len(pairs)), pairs)
            h = graph_from_mask(n, rng.randrange(1 << len(pairs)), pairs)
            ours = are_isomorphic(g, h)
            theirs = nx.is_isomorphic(to_nx(g), to_nx(h))
            assert ours == theirs
            agree += 1
        assert agree == 150

    def test_relabelled_pairs_always_isomorphic(self):
        rng = random.Random(27)
        for _ in range(60):
            n = rng.randrange(2, 10)
            pairs = all_pairs(n)
            g = graph_from_mask(n, rng.randrange(1 << len(pairs)), pairs)
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(tuple(perm))
            assert are_isomorphic(g, h)
            assert nx.is_isomorphic(to_nx(g), to_nx(h))

    def test_asymmetry_matches_vf2_self_maps(self):
        # a graph is asymmetric iff VF2 finds exactly one self-isomorphism
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randrange(2, 8)
            pairs = all_pairs(n)
            g = graph_from_mask(n, rng.randrange(1 << len(pairs)), pairs)
            matcher = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
            count = sum(1 for _ in matcher.isomorphisms_iter())
            assert is_asymmetric(g) == (count == 1)
            assert automorphism_group(g).order == count

    def test_torus_witness_self_maps(self):
        # each Thm2.10 row's upper bound rests on its two-removal witness:
        # the torus has a non-trivial self-map and the edited graph has none
        rows = verify("Thm2.10")
        assert [(r.params["r"], r.params["s"]) for r in rows] == [(6, 7), (10, 11)]
        for row in rows:
            g = torus(row.params["r"], row.params["s"])
            removed = row.evidence["cross_direction_two_removal"]["removed"]
            h = to_nx(apply_flips(g, FlipSet(removed=frozenset(map(tuple, removed)))))
            base = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), to_nx(g))
            assert len(list(islice(base.isomorphisms_iter(), 2))) == 2
            edited = nx.algorithms.isomorphism.GraphMatcher(h, h)
            assert sum(1 for _ in edited.isomorphisms_iter()) == 1


class TestSearchSpotAudit:
    def test_random_seven_vertex_indices_match_reference(self):
        # the engine's value re-audited by the pruning-free reference up
        # to that layer (graphs whose value exceeds 3 are skipped to keep
        # the raw enumeration quick)
        rng = random.Random(8128)
        audited = 0
        while audited < 12:
            pairs = all_pairs(7)
            g = graph_from_mask(7, rng.randrange(1 << len(pairs)), pairs)
            value = asymmetric_index(g).value
            if value > 3:
                continue
            assert reference_index(g, max_k=value) == value
            audited += 1


class TestClosureFallback:
    def test_group_elements_cap(self):
        gens = automorphism_group(Graph.empty(5)).generators  # S_5, order 120
        assert group_elements(gens, 5, cap=1000) is not None
        assert group_elements(gens, 5, cap=100) is None

    def test_subgroup_fallback_is_group_with_identity(self):
        gens = automorphism_group(Graph.empty(5)).generators
        elems = subgroup_elements(gens, 5, cap=30)
        assert identity_perm(5) in elems
        assert 1 <= len(elems) <= 30
        elem_set = set(elems)
        for a in elems:
            for b in elems:
                assert tuple(a[b[i]] for i in range(5)) in elem_set

    def test_search_correct_under_tiny_closure_cap(self, monkeypatch):
        # force the subgroup fallback during orbit pruning; values and
        # witnesses must be unaffected (dedup is only an optimization)
        import asymindex.search as search_mod
        monkeypatch.setattr(search_mod, "MAX_CLOSURE", 6)
        res = asymmetric_index(cycle(8))
        assert res.value == 2
        for w in res.witnesses:
            assert is_asymmetric(apply_flips(cycle(8), w))
        assert asymmetric_index(wheel(7)).value == 2


def bfs_closure(generators, n: int) -> list:
    """Every product of generators, by breadth-first search from the
    identity: each element is composed with every generator."""
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for s in generators:
                c = tuple(s[x] for x in a)
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(elems)


class TestGroupElementsOracle:
    @pytest.fixture(scope="class")
    def cases(self, classes6):
        rng = random.Random(41)
        out = []
        # no generators on 0, 1 and 2 points, then up to S_8
        out = [([], n, bfs_closure([], n)) for n in range(3)]
        for g in list(classes6) + [star(8), complete(7), complete(8)]:
            gens = list(automorphism_group(g).generators)
            rng.shuffle(gens)
            out.append((gens, g.n, bfs_closure(gens, g.n)))
        return out

    def test_matches_bfs_closure(self, cases):
        assert max(len(expected) for _, _, expected in cases) == 40320
        for gens, n, expected in cases:
            assert group_elements(gens, n) == expected

    def test_cap_boundary(self, cases):
        for gens, n, expected in cases:
            assert group_elements(gens, n, cap=len(expected)) == expected
            if len(expected) > 1:
                assert group_elements(gens, n, cap=len(expected) - 1) is None

    def test_closure_cap_boundary(self, cases):
        # the array pass itself: identity first, the whole group at cap
        # |G|, and one below it the leading-generator subgroup (checked
        # against breadth-first closures below), flagged as partial
        for gens, n, expected in cases:
            for cap in {len(expected), max(1, len(expected) - 1)}:
                elems, whole = _closure(gens, n, cap)
                assert whole == (cap == len(expected))
                assert tuple(elems[0].tolist()) == identity_perm(n)
                assert sorted(map(tuple, elems.tolist())) == \
                    (expected if whole else subgroup_elements(gens, n, cap))

    def test_subgroup_is_leading_generator_closure(self, cases):
        for gens, n, expected in cases:
            # closures of gens[:m] for m = 0, 1, ... until the whole group
            prefixes = [bfs_closure([], n)]
            while len(prefixes[-1]) < len(expected):
                prefixes.append(bfs_closure(gens[:len(prefixes)], n))
            for cap in {2, 6, 24, max(1, len(expected) - 1), len(expected)}:
                kept = prefixes[0]
                for elems in prefixes[1:]:
                    if len(elems) > cap:
                        break
                    kept = elems
                assert subgroup_elements(gens, n, cap) == kept
