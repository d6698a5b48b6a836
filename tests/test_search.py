"""Edit search: flip application, the exact index, counting, bounds.

The reference implementation here enumerates flip sets layer by layer
with no orbit pruning at all; agreement with the pruned search on every
6-vertex class is the core soundness check.
"""

from itertools import combinations
import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from asymindex.graph import Graph, disjoint_union, join
from asymindex.automorphism import (are_isomorphic, automorphism_group,
                                    group_elements, is_asymmetric)
from asymindex.enumeration import all_pairs, graph_from_mask
from asymindex.families import path, cycle, complete, star, torus, wheel
from asymindex.search import (BudgetExceededError, FlipSet,
                              NoAsymmetrizationError, SearchStats, apply_flips,
                              asymmetric_index,
                              count_nonisomorphic_asymmetrizations,
                              _flipset_from_indices, flip_orbit_layers,
                              lower_bound)

from conftest import brute_is_asymmetric
from test_automorphism import petersen


def reference_index(g: Graph, max_k: int = 8) -> int | None:
    """Pruning-free iterative deepening over raw flip subsets."""
    pairs = all_pairs(g.n)
    for k in range(max_k + 1):
        for subset in combinations(pairs, k):
            removed = frozenset(p for p in subset if g.has_edge(*p))
            added = frozenset(p for p in subset if not g.has_edge(*p))
            if is_asymmetric(apply_flips(g, FlipSet(removed, added))):
                return k
    return None


class TestFlipSet:
    def test_normalization_and_size(self):
        fs = FlipSet(removed={(3, 1)}, added={(0, 2), (2, 4)})
        assert fs.removed == frozenset({(1, 3)})
        assert fs.size == 3

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            FlipSet(removed={(0, 1)}, added={(1, 0)})

    def test_apply_examples(self):
        p6_like = apply_flips(cycle(6), FlipSet(removed={(0, 1)}))
        assert are_isomorphic(p6_like, path(6))
        g = wheel(7)
        assert apply_flips(g, FlipSet()) == g

    def test_apply_validates_states(self):
        with pytest.raises(ValueError, match="absent"):
            apply_flips(path(4), FlipSet(removed={(0, 2)}))
        with pytest.raises(ValueError, match="existing"):
            apply_flips(path(4), FlipSet(added={(0, 1)}))
        with pytest.raises(ValueError, match="out of range"):
            apply_flips(path(4), FlipSet(added={(0, 9)}))

    def test_from_indices_matches_public_constructor(self):
        # _flipset_from_indices skips re-normalization; the result must be
        # indistinguishable from a FlipSet built the public way.
        g = path(5)
        pairs = all_pairs(5)
        for subset in combinations(range(len(pairs)), 3):
            fs = _flipset_from_indices(g, subset, pairs)
            chosen = [pairs[i] for i in subset]
            public = FlipSet(removed={(v, u) for u, v in chosen if g.has_edge(u, v)},
                             added={(v, u) for u, v in chosen if not g.has_edge(u, v)})
            assert fs == public and hash(fs) == hash(public)
            assert fs.sort_key() == public.sort_key() and repr(fs) == repr(public)
        with pytest.raises(ValueError, match="overlap"):
            object.__new__(FlipSet)._set(frozenset({(0, 1)}), frozenset({(0, 1)}))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_inverse_roundtrip(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        pairs = all_pairs(n)
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        g = graph_from_mask(n, mask, pairs)
        flippable = data.draw(st.sets(st.sampled_from(pairs), max_size=4))
        fs = FlipSet(removed=frozenset(p for p in flippable if g.has_edge(*p)),
                     added=frozenset(p for p in flippable if not g.has_edge(*p)))
        assert apply_flips(apply_flips(g, fs), fs.inverse()) == g


class TestAsymmetricIndex:
    @pytest.mark.parametrize("n", range(6, 13))
    def test_paths_need_one_edit(self, n):
        res = asymmetric_index(path(n))
        assert res.value == 1
        assert FlipSet(added={(1, 3)}) in res.witnesses or \
            is_asymmetric(apply_flips(path(n), res.witnesses[0]))

    @pytest.mark.parametrize("n", range(6, 13))
    def test_cycles_need_two_edits(self, n):
        assert asymmetric_index(cycle(n)).value == 2

    def test_k6_needs_six(self):
        assert asymmetric_index(complete(6)).value == 6

    def test_no_asymmetrization_below_six(self):
        for n in range(2, 6):
            with pytest.raises(NoAsymmetrizationError):
                asymmetric_index(Graph.empty(n))

    def test_value_zero_for_asymmetric_input(self):
        g = cycle(6).add_edge(2, 4).add_edge(2, 5)
        res = asymmetric_index(g)
        assert res.value == 0 and res.witnesses == [FlipSet()]

    def test_remove_only_cycle_exhausts_universe(self):
        with pytest.raises(BudgetExceededError) as exc:
            asymmetric_index(cycle(7), mode="remove-only", max_k=7)
        assert exc.value.universe_exhausted
        assert exc.value.lower_bound == 8

    def test_budget_carries_lower_bound(self):
        with pytest.raises(BudgetExceededError) as exc:
            asymmetric_index(complete(6), max_k=3)
        assert exc.value.lower_bound == 4
        assert not exc.value.universe_exhausted

    def test_add_only_mode(self):
        res = asymmetric_index(path(9), mode="add-only")
        assert res.value == 1 and all(not w.removed for w in res.witnesses)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            asymmetric_index(path(9), mode="sideways")

    def test_unknown_mode_checked_before_shortcuts(self):
        asymmetric = cycle(6).add_edge(2, 4).add_edge(2, 5)
        for g in (asymmetric, Graph.empty(4)):
            with pytest.raises(ValueError, match="unknown mode"):
                asymmetric_index(g, mode="bogus")

    def test_rejects_negative_budget_and_empty_witness_cap(self):
        with pytest.raises(ValueError, match="witness_cap"):
            asymmetric_index(path(6), witness_cap=0)
        with pytest.raises(ValueError, match="max_k"):
            asymmetric_index(path(6), max_k=-1)
        with pytest.raises(BudgetExceededError) as exc:
            asymmetric_index(path(6), max_k=0)
        assert exc.value.lower_bound == 1

    def test_witnesses_are_valid_and_sorted(self):
        res = asymmetric_index(wheel(8), witness_cap=3)
        assert len(res.witnesses) <= 3
        assert res.witnesses == sorted(res.witnesses, key=FlipSet.sort_key)
        for w in res.witnesses:
            assert w.size == res.value
            assert is_asymmetric(apply_flips(wheel(8), w))

    def test_matches_reference_on_all_six_vertex_classes(self, classes6):
        for g in classes6:
            res = asymmetric_index(g)
            assert res.value == reference_index(g), to_debug(g)

    def test_complement_duality_sample(self, classes6):
        rng = random.Random(5)
        for g in rng.sample(classes6, 25):
            res = asymmetric_index(g)
            resc = asymmetric_index(g.complement())
            assert res.value == resc.value
            for w in res.witnesses:
                assert is_asymmetric(apply_flips(g.complement(), w.inverse()))

    def test_complement_duality_random_seven_vertex(self):
        rng = random.Random(77)
        pairs = all_pairs(7)
        for _ in range(50):
            g = graph_from_mask(7, rng.randrange(1 << len(pairs)), pairs)
            res = asymmetric_index(g)
            assert res.value == asymmetric_index(g.complement()).value
            for w in res.witnesses:
                assert is_asymmetric(apply_flips(g.complement(), w.inverse()))

    def test_monotone_layering_audit(self):
        # value k means every smaller layer is empty; re-check layer k-1
        # exhaustively without pruning for a couple of small cases.
        for g in (cycle(7), wheel(7)):
            value = asymmetric_index(g).value
            assert value == 2
            pairs = all_pairs(g.n)
            for p in pairs:
                fs = FlipSet(removed={p}) if g.has_edge(*p) else FlipSet(added={p})
                assert not is_asymmetric(apply_flips(g, fs))

    def test_stats_accounting(self):
        res = asymmetric_index(cycle(8))
        assert res.stats.tested >= 1
        assert res.stats.nodes >= res.stats.dedup_hits

    def test_layers_stop_at_universe(self):
        # the 8 edges of C_8 are the whole remove-only universe: a huge
        # budget ends there, with the same bound, flag and stats
        outcomes = []
        for max_k in (8, 10**9):
            start = time.perf_counter()
            with pytest.raises(BudgetExceededError) as exc:
                asymmetric_index(cycle(8), mode="remove-only", max_k=max_k)
            assert time.perf_counter() - start < 1
            outcomes.append((exc.value.lower_bound, exc.value.universe_exhausted,
                             exc.value.stats.as_dict()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (9, True)

    def test_outputs_pinned(self):
        # sha256 of value, witnesses and stats, computed before the orbit
        # layers were rebuilt on per-representative images
        out = []
        for g, kw in ((star(9), {}), (complete(8), {"max_k": 6}),
                      (complete(7), {}), (torus(6, 7), {}),
                      (cycle(10), {"mode": "add-only"})):
            res = asymmetric_index(g, **kw)
            out.append([res.value, [w.as_dict() for w in res.witnesses],
                        res.stats.as_dict()])
        with pytest.raises(BudgetExceededError) as exc:
            asymmetric_index(cycle(12), mode="remove-only")
        out.append([exc.value.lower_bound, exc.value.universe_exhausted,
                    exc.value.stats.as_dict()])
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == \
            "e852b131a6a5fd7edb553b6cea3f35838d1d8d616abcdb6119238f91df84bd28"


class TestLayers:
    def test_layer_reps_cover_k6_classes(self):
        # orbits of k-subsets of K_6 edges = k-edge graph classes on 6 vertices
        stats = SearchStats()
        layers = flip_orbit_layers(complete(6), 3, "remove-only", stats)
        assert [(k, len(sets)) for k, sets in layers] == [(1, 1), (2, 2), (3, 5)]
        # 15 + 1*14 + 2*13 candidates; 1 + 2 + 5 of them are kept
        assert (stats.nodes, stats.dedup_hits) == (55, 47)

    @pytest.mark.parametrize("g,max_k", [
        (star(7), 3), (complete(6), 3), (cycle(8), 3), (wheel(7), 3),
        (petersen(), 3), (disjoint_union(complete(3), complete(3)), 3),
        (join(Graph.empty(3), Graph.empty(3)), 3), (cycle(12), 2),
    ], ids=["star7", "k6", "c8", "w7", "petersen", "2k3", "k33", "c12"])
    @pytest.mark.parametrize("mode", ["mixed", "add-only", "remove-only"])
    def test_reps_are_brute_force_min_images(self, g, max_k, mode):
        pairs = all_pairs(g.n)
        index = {p: i for i, p in enumerate(pairs)}
        elems = group_elements(automorphism_group(g).generators, g.n)
        universe = [i for i, (u, v) in enumerate(pairs) if mode == "mixed"
                    or g.has_edge(u, v) == (mode == "remove-only")]
        # with at most 62 pairs the least image is the least bitmask,
        # otherwise the lexicographically least sorted index tuple
        key = (lambda t: sum(1 << i for i in t)) if len(pairs) <= 62 else None
        stats = SearchStats()
        layers = dict(flip_orbit_layers(g, max_k, mode, stats))
        nodes = dedup = 0
        prev = [()]
        for k in range(1, max_k + 1):
            expected, seen = set(), set()
            for subset in combinations(universe, k):
                if subset in seen:
                    continue
                orbit = {tuple(sorted(index[tuple(sorted((p[u], p[v])))]
                                      for u, v in (pairs[i] for i in subset)))
                         for p in elems}
                seen |= orbit
                expected.add(min(orbit, key=key))
            got = {tuple(sorted(index[e] for e in fs.removed | fs.added))
                   for fs in layers[k]}
            assert got == expected, (k, mode)
            cands = [tuple(sorted(base + (e,)))
                     for base in prev for e in universe if e not in base]
            nodes += len(cands)
            dedup += len(cands) - len(expected)
            prev = sorted(expected)
        assert (stats.nodes, stats.dedup_hits) == (nodes, dedup)


class TestCounting:
    def test_c6_two_chords_oracle(self):
        # independent recount: all 36 chord pairs, brute-force asymmetry,
        # brute-force pairwise isomorphism grouping.
        g = cycle(6)
        non_edges = list(g.non_edges())
        hits = []
        for pair in combinations(non_edges, 2):
            h = apply_flips(g, FlipSet(added=frozenset(pair)))
            if brute_is_asymmetric(h):
                hits.append(h)
        classes = []
        for h in hits:
            if not any(are_isomorphic(h, c) for c in classes):
                classes.append(h)
        assert len(classes) == 1
        assert count_nonisomorphic_asymmetrizations(g, 0, 2) == 1

    def test_identity_on_asymmetric_graph(self):
        g = cycle(6).add_edge(2, 4).add_edge(2, 5)
        assert count_nonisomorphic_asymmetrizations(g, 0, 0) == 1

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            count_nonisomorphic_asymmetrizations(path(4), 9, 0)
        with pytest.raises(ValueError):
            count_nonisomorphic_asymmetrizations(complete(4), 0, 1)

    def test_dedup_is_by_result_not_flipset(self):
        # C_7 has 3 asymmetrizing chord-pair classes but many labeled pairs.
        assert count_nonisomorphic_asymmetrizations(cycle(7), 0, 2) == 3


class TestLowerBound:
    def test_examples(self):
        assert lower_bound(star(6)) == 2
        assert lower_bound(complete(6)) == 2
        assert lower_bound(cycle(6).add_edge(2, 4).add_edge(2, 5)) == 0


def to_debug(g: Graph) -> str:
    from asymindex.graph import to_graph6
    return f"mismatch on {to_graph6(g).decode()}"
