"""Cross-validation against networkx's VF2 isomorphism machinery —
an independent algorithm family, so agreement here is real evidence."""

import random

import networkx as nx
import pytest

from asymindex.graph import Graph, disjoint_union
from asymindex.automorphism import (AutReport, are_isomorphic,
                                    automorphism_group, group_elements,
                                    identity_perm,
                                    is_asymmetric, subgroup_elements)
from asymindex.enumeration import all_pairs, graph_from_mask, nonisomorphic_graphs
from asymindex.claims import verify
from asymindex.families import complete, path, split, star, torus
from asymindex.search import apply_flips, asymmetric_index

from conftest import (bfs_closure, rebuilt_child, to_nx, vf2_self_maps,
                      whole_layers, witnesses_asymmetrize)
from test_search import reference_index


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
        # every witness of the Thm2.10 rows and of Thm3.1's P6+P6 row: the
        # row's graph has a non-trivial self-map and each edited graph none
        rows = verify("Thm2.10")
        assert [(r.params["r"], r.params["s"]) for r in rows] == [(6, 7), (10, 11)]
        for row in rows:
            g = torus(row.params["r"], row.params["s"])
            assert witnesses_asymmetrize(g, row.evidence["witnesses"])
        union, = [r for r in verify("Thm3.1") if r.params["components"] == "P6+P6"]
        assert witnesses_asymmetrize(disjoint_union(path(6), path(6)),
                                     union.evidence["witnesses"])


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


class TestSymmetricFlagAgainstVf2:
    # A child h = P xor e keeps the automorphisms of P that fix the pair
    # e, Stab(e) of order |Aut P| / |orbit of e|; the walk flags h
    # symmetric when that is above 1, and asymmetric_index never tests it.
    # VF2 must find a self-map besides the identity in each flagged child
    # of layers 1 and 2 from every class on 6 vertices: 5616 of the 9988
    # children in mixed mode, 1670 of the 2919 in each one-sided mode.
    @pytest.mark.parametrize("mode,flagged", [
        ("mixed", 5616), ("add-only", 1670), ("remove-only", 1670)])
    def test_flagged_children_are_symmetric(self, classes6, mode, flagged):
        seen = 0
        for g in classes6:
            for _, children in whole_layers(g, 2, mode):
                for child in children:
                    if child[2]:
                        seen += 1
                        assert vf2_self_maps(rebuilt_child(g, child), 2) == 2
        assert seen == flagged


class TestHeavyInputs:
    """Inputs that took seconds to minutes while each search layer was a
    table over Aut(G), or while the hit layer was built whole; every
    witness is asymmetric by VF2's count of self-maps."""

    @pytest.mark.parametrize("g,mode,value", [
        pytest.param(star(10), "mixed", 7, id="star10"),
        pytest.param(complete(10), "remove-only", 8, id="k10-remove-only"),
        pytest.param(star(11), "mixed", 8, id="star11"),
        pytest.param(complete(12), "remove-only", 10, id="k12-remove-only"),
        pytest.param(split(8, 3), "mixed", 7, id="split8+3")])
    def test_exact_value_with_vf2_checked_witnesses(self, g, mode, value):
        res = asymmetric_index(g, mode, max_k=value)
        assert res.value == value and res.witnesses
        assert len(set(res.witnesses)) == len(res.witnesses)
        for w in res.witnesses:
            assert w.size == value and (mode == "mixed" or not w.added)
            h = to_nx(apply_flips(g, w))
            matcher = nx.algorithms.isomorphism.GraphMatcher(h, h)
            assert sum(1 for _ in matcher.isomorphisms_iter()) == 1


class TestClosureFallback:
    def test_group_elements_cap(self):
        rep = automorphism_group(Graph.empty(5))  # S_5, order 120
        assert group_elements(rep, cap=1000) is not None
        assert group_elements(rep, cap=100) is None

    def test_subgroup_fallback_is_group_with_identity(self):
        elems = [tuple(p) for p in
                 subgroup_elements(automorphism_group(Graph.empty(5)), cap=30)]
        assert elems[0] == identity_perm(5)
        assert 1 <= len(elems) <= 30
        elem_set = set(elems)
        for a in elems:
            for b in elems:
                assert tuple(a[b[i]] for i in range(5)) in elem_set


class TestGroupElementsOracle:
    @pytest.fixture(scope="class")
    def cases(self, classes6):
        # (report with shuffled generators, n, breadth-first closure):
        # trivial groups on 0, 1 and 2 points, every class on 6 and 7
        # vertices, then up to S_8
        rng = random.Random(41)
        out = []
        for n in range(3):
            rep = AutReport(True, 1, (), tuple((v,) for v in range(n)), ())
            out.append((rep, n, bfs_closure([], n)))
        for g in (list(classes6) + nonisomorphic_graphs(7)
                  + [star(8), complete(7), complete(8)]):
            rep = automorphism_group(g)
            gens = list(rep.generators)
            rng.shuffle(gens)
            rep = AutReport(rep.is_asymmetric, rep.order, tuple(gens), rep.orbits, rep.base)
            out.append((rep, g.n, bfs_closure(gens, g.n)))
        return out

    def test_matches_bfs_closure(self, cases):
        assert max(len(expected) for _, _, expected in cases) == 40320
        for rep, n, expected in cases:
            assert rep.order == len(expected)
            assert group_elements(rep) == expected

    def test_cap_boundary(self, cases):
        for rep, n, expected in cases:
            assert group_elements(rep, cap=len(expected)) == expected
            if len(expected) > 1:
                assert group_elements(rep, cap=len(expected) - 1) is None

    def test_closure_cap_boundary(self, cases):
        # the table build itself: identity first, the whole group at cap
        # |G|, and one below it a proper subgroup (which one is checked
        # in the next test), without repeated rows
        for rep, n, expected in cases:
            for cap in {len(expected), max(1, len(expected) - 1)}:
                table = [tuple(p) for p in subgroup_elements(rep, cap)]
                whole = len(table) == len(expected)
                assert whole == (cap == len(expected))
                assert table[0] == identity_perm(n)
                assert len(set(table)) == len(table) <= cap
                assert len(expected) % len(table) == 0
                assert set(table) <= set(expected)

    def test_capped_table_is_base_prefix_stabilizer(self, cases):
        # Under a cap the table is the pointwise stabilizer of the least
        # base prefix whose stabilizer fits, identity first.  The
        # stabilizers come from the breadth-first closure, so equality
        # also shows the table is closed under composition.
        for rep, n, expected in cases:
            stabs = [[p for p in expected if all(p[b] == b for b in rep.base[:j])]
                     for j in range(len(rep.base) + 1)]
            assert stabs[-1] == [identity_perm(n)]
            for cap in {1, 2, 6, 24, max(1, len(expected) - 1), len(expected)}:
                j = next(j for j, stab in enumerate(stabs) if len(stab) <= cap)
                table = [tuple(p) for p in subgroup_elements(rep, cap)]
                assert table[0] == identity_perm(n)
                assert sorted(table) == stabs[j]
