"""Family generators, the text grammar, and the witness catalog."""

import pytest

from asymindex.graph import Graph
from asymindex.automorphism import are_isomorphic, is_asymmetric
from asymindex.families import (FamilySpec, circulant, cycle,
                                cycle_with_pendant_paths, generate, path,
                                pendant_extension, split, torus, wheel,
                                witness, WITNESS_NAMES)
from asymindex.search import apply_flips


class TestGenerators:
    def test_wheel_shape(self):
        w = wheel(7)
        assert (w.n, w.edge_count) == (7, 12)
        assert w.degree_sequence() == (6, 3, 3, 3, 3, 3, 3)
        assert all(w.has_edge(0, v) for v in range(1, 7))

    def test_circulant_17(self):
        g = circulant(17, (1, 4))
        assert (g.n, g.edge_count) == (17, 34)
        assert set(g.degree_sequence()) == {4}

    def test_circulant_adjacency_rule(self):
        g = circulant(10, (2, 5))
        for i in range(10):
            for j in range(10):
                if i != j:
                    expected = ((i - j) % 10) in {2, 5, 8}
                    assert g.has_edge(i, j) == expected

    def test_circulant_distance_one_is_cycle(self):
        for m in range(3, 13):
            assert are_isomorphic(circulant(m, (1,)), cycle(m))

    def test_split_layout(self):
        g = split(5, 3)
        assert g.n == 8
        assert g.degree(0) == 4 and g.degree(5) == 0

    def test_pendant_cycle_counts(self):
        g = cycle_with_pendant_paths(3)
        assert (g.n, g.edge_count) == (24, 24)
        assert g.degree(0) == 3  # cycle vertex carrying its pendant path

    def test_regularity(self):
        assert set(cycle(9).degree_sequence()) == {2}
        assert set(torus(4, 5).degree_sequence()) == {4}
        assert set(circulant(12, (2, 3)).degree_sequence()) == {4}

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            wheel(3)
        with pytest.raises(ValueError):
            circulant(10, (6,))
        with pytest.raises(ValueError):
            cycle_with_pendant_paths(2)


class TestSpecGrammar:
    @pytest.mark.parametrize("text,n,m", [
        ("path:9", 9, 8), ("cycle:12", 12, 12), ("complete:7", 7, 21),
        ("star:8", 8, 7), ("wheel:9", 9, 16), ("circulant:17:1,4", 17, 34),
        ("grid:3x4", 12, 17), ("pxc:3x5", 15, 25), ("torus:6x7", 42, 84),
        ("split:8+3", 11, 28), ("pendant-cycle:4", 34, 34),
    ])
    def test_parse_and_generate(self, text, n, m):
        g = generate(FamilySpec.parse(text))
        assert (g.n, g.edge_count) == (n, m)

    def test_roundtrip_text(self):
        for text in ("path:9", "circulant:17:1,4", "grid:3x4", "split:8+3"):
            assert str(FamilySpec.parse(text)) == text

    def test_parse_errors(self):
        for bad in ("octahedron:5", "path:x", "circulant:15", "grid:3", "split:8"):
            with pytest.raises(ValueError):
                FamilySpec.parse(bad)

    def test_generate_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown family kind"):
            generate(FamilySpec("octahedron", (5,)))


class TestWitnessCatalog:
    def test_catalog_is_complete(self):
        args = {"path-add-chord": (9,), "cycle-remove-add": (9,),
                "cycle-two-chords": (9, 3, 4, 6), "wheel-two-removals": (9,),
                "circulant-remove2": (4, "+"), "circulant-add2": (4, "-"),
                "circulant-mixed": (4, "+"), "grid-corner": (3, 3),
                "pxc-two-removals": (3, 5), "split-construction": (8, 2)}
        assert set(args) == set(WITNESS_NAMES)
        for name, a in args.items():
            spec, flips = witness(name, *a)
            g = generate(spec)
            edited = apply_flips(g, flips)  # validates edge states
            assert edited.n == g.n

    def test_two_chords_is_figure_graph(self):
        spec, flips = witness("cycle-two-chords", 6, 3, 3, 4)
        got = apply_flips(generate(spec), flips)
        ref = cycle(6).add_edge(2, 4).add_edge(2, 5)
        assert are_isomorphic(got, ref)

    def test_two_chords_cycle_lengths(self):
        # chords (0, k-1) and (0, k+m-3) cut C_n into a k-, m- and l-cycle
        spec, flips = witness("cycle-two-chords", 11, 4, 3, 8)
        assert flips.added == frozenset({(0, 3), (0, 4)})

    def test_circulant_witness_indices(self):
        spec, flips = witness("circulant-remove2", 4, "+")
        assert str(spec) == "circulant:17:1,4"
        assert flips.removed == frozenset({(1, 2), (3, 7)})
        spec, flips = witness("circulant-add2", 4, "-")
        assert str(spec) == "circulant:15:1,4"
        assert flips.added == frozenset({(0, 2), (0, 3)})
        spec, flips = witness("circulant-mixed", 4, "+")
        assert flips.removed == frozenset({(3, 7)})
        assert flips.added == frozenset({(0, 2)})

    def test_grid_corner_removes_first_column_edge(self):
        spec, flips = witness("grid-corner", 3, 3)
        assert flips.removed == frozenset({(0, 3)})

    def test_split_construction_shape(self):
        spec, flips = witness("split-construction", 9, 3)
        assert flips.size == 9 - 2 + 3 - 1
        assert all(u < 8 and v < 8 for u, v in flips.removed)
        assert (8, 9) in flips.added and (9, 10) in flips.added

    def test_constraint_errors(self):
        with pytest.raises(ValueError, match="unknown witness"):
            witness("magic", 3)
        with pytest.raises(ValueError, match="k\\+m\\+l"):
            witness("cycle-two-chords", 9, 3, 3, 3)
        with pytest.raises(ValueError, match="2 < k < l"):
            witness("cycle-two-chords", 10, 5, 4, 5)
        with pytest.raises(ValueError, match="m >= 3"):
            witness("cycle-two-chords", 8, 3, 2, 7)
        with pytest.raises(ValueError, match="sign"):
            witness("circulant-remove2", 4, "?")
        with pytest.raises(ValueError, match="s >= 8"):
            witness("split-construction", 7, 1)

    def test_each_witness_yields_asymmetric_graph(self):
        # The generic instances; boundary failures are the claim ledger's
        # business (grid r=2, the cube) and are excluded here.
        cases = [("path-add-chord", (8,)), ("cycle-remove-add", (8,)),
                 ("cycle-two-chords", (7, 3, 4, 4)), ("wheel-two-removals", (8,)),
                 ("circulant-remove2", (4, "-")), ("circulant-add2", (4, "+")),
                 ("circulant-mixed", (4, "-")), ("grid-corner", (3, 4)),
                 ("pxc-two-removals", (2, 3)), ("split-construction", (8, 1))]
        for name, a in cases:
            spec, flips = witness(name, *a)
            assert is_asymmetric(apply_flips(generate(spec), flips)), name


class TestPendantExtension:
    def test_no_leaf_case_uses_max_degree(self):
        g = cycle(6).add_edge(2, 4).add_edge(2, 5)  # min degree 2, max at 2
        extended = pendant_extension(g)
        assert extended.n == 7
        assert extended.has_edge(2, 6)

    def test_leaf_case_extends_deepest_leaf(self):
        # star with one long pendant path: the far end is the unique leaf
        # at max distance from the only branch vertex.
        g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
        extended = pendant_extension(g)
        assert extended.has_edge(6, 7)

    def test_rejects_pathological_input(self):
        with pytest.raises(ValueError):
            pendant_extension(Graph.empty(0))
        with pytest.raises(ValueError):
            pendant_extension(path(2))  # leaves but no branch vertex
