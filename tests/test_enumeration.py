"""Catalog enumeration cross-checked against the orbit-marking oracle."""

import math

import pytest

from asymindex import enumeration
from asymindex.enumeration import (all_pairs, asymmetric_forest_edges,
                                   asymmetric_graphs, asymmetric_trees,
                                   graph_from_mask, nonisomorphic_graphs,
                                   nonisomorphic_trees)
from asymindex.automorphism import are_isomorphic, canonical_form, is_asymmetric
from asymindex.graph import Graph


class TestGraphCatalog:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
    def test_small_counts(self, n, count):
        assert len(nonisomorphic_graphs(n)) == count

    def test_six_vertex_classes_match_orbit_marking(self, orbit_classes6, classes6):
        reps = nonisomorphic_graphs(6)
        assert len(reps) == len(orbit_classes6) == 156
        ours = {canonical_form(g) for g in reps}
        oracle = {canonical_form(g) for g in classes6}
        assert ours == oracle

    def test_orbit_sizes_give_asymmetric_count(self, orbit_classes6):
        # |orbit| = 720 exactly when the stabilizer (= Aut) is trivial.
        asym_by_orbit = sum(1 for _, size in orbit_classes6 if size == 720)
        assert asym_by_orbit == len(asymmetric_graphs(6)) == 8

    def test_extension_step_takes_one_canonical_form_per_candidate(self, monkeypatch):
        # 34 five-vertex classes times 2^5 attachments; bench/run.py
        # --trace 1 checks the same rule for n = 7 at 156 * 2^6 = 9984
        bases = nonisomorphic_graphs(5)
        calls = [0]

        def counted(g):
            calls[0] += 1
            return canonical_form(g)

        monkeypatch.setattr(enumeration, "canonical_form", counted)
        reps = enumeration._extensions(bases, range(32))
        assert calls[0] == 34 * 2 ** 5 == 1088
        assert len(reps) == 156

    def test_pairwise_nonisomorphic(self):
        reps = nonisomorphic_graphs(5)
        for i, g in enumerate(reps):
            for h in reps[i + 1:]:
                assert not are_isomorphic(g, h)


class TestTreeCatalog:
    @pytest.mark.parametrize("n,count", [
        (1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47)])
    def test_counts(self, n, count):
        assert len(nonisomorphic_trees(n)) == count

    def test_all_are_trees(self):
        for t in nonisomorphic_trees(8):
            assert t.edge_count == 7
            from asymindex.graph import is_connected
            assert is_connected(t)

    @pytest.mark.parametrize("n,count", [(7, 1), (8, 1), (9, 3)])
    def test_asymmetric_tree_counts(self, n, count):
        trees = asymmetric_trees(n)
        assert len(trees) == count
        assert all(is_asymmetric(t) for t in trees)

    def test_forest_edges(self):
        edges = asymmetric_forest_edges(8)
        assert len(edges) == 6
        assert all(0 <= u < v <= 6 for u, v in edges)
        forest = Graph.from_edges(8, edges)
        assert is_asymmetric(forest)
        with pytest.raises(ValueError):
            asymmetric_forest_edges(7)


class TestHelpers:
    def test_graph_from_mask(self):
        pairs = all_pairs(4)
        full = graph_from_mask(4, (1 << len(pairs)) - 1, pairs)
        assert full == Graph.complete(4)
        assert graph_from_mask(4, 0, pairs) == Graph.empty(4)

    def test_all_pairs_count(self):
        assert len(all_pairs(7)) == math.comb(7, 2)
