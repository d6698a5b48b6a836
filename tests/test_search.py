"""Edit search: flip application, the exact index, counting, bounds.

The reference implementation here enumerates flip sets layer by layer
with no orbit pruning at all; agreement with the pruned search on every
6-vertex class is the core soundness check.
"""

from itertools import combinations
from math import comb
import hashlib
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymindex.graph import Graph, _iter_bits, disjoint_union, from_graph6, join
import asymindex.automorphism as automorphism_mod
from asymindex.automorphism import (_orbit_partition, _pair_index, _pair_maps,
                                    are_isomorphic, automorphism_group,
                                    canonical_form, group_elements,
                                    is_asymmetric, subgroup_elements,
                                    MAX_CLOSURE)
from asymindex.enumeration import all_pairs, graph_from_mask, nonisomorphic_graphs
from asymindex.families import path, cycle, complete, grid, star, torus, wheel
import asymindex.search as search_mod
from asymindex.search import (DEFAULT_WITNESS_CAP, MODES, BudgetExceededError,
                              FlipSet, NoAsymmetrizationError, SearchStats,
                              apply_flips, asymmetric_index,
                              count_nonisomorphic_asymmetrizations,
                              flip_orbit_layers)

from conftest import brute_is_asymmetric, rebuilt_child, whole_layers
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

    @pytest.mark.parametrize("flips", [FlipSet(removed={(0, 9)}),
                                       FlipSet(removed={(2, 2)}),
                                       FlipSet(added={(2, 2)})],
                             ids=["removed-out-of-range", "removed-loop", "added-loop"])
    def test_apply_rejects_bad_pairs(self, flips):
        with pytest.raises(ValueError, match="out of range|self-loop"):
            apply_flips(path(4), flips)

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
        # two flip orders reach C_6 + {0-2, 0-3} and W_6 - {0-1, 1-2}; each
        # flip set is one witness
        for g, mode, cap in ((wheel(8), "mixed", 3), (cycle(6), "mixed", 4),
                             (cycle(6), "add-only", 4), (wheel(6), "mixed", 4),
                             (wheel(6), "remove-only", 4)):
            res = asymmetric_index(g, mode, witness_cap=cap)
            assert 0 < len(res.witnesses) <= cap
            assert res.witnesses == sorted(set(res.witnesses), key=FlipSet.sort_key)
            for w in res.witnesses:
                assert w.size == res.value
                assert is_asymmetric(apply_flips(g, w))

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

    @pytest.mark.parametrize("g,mode", [
        pytest.param(star(6), "remove-only", id="star6-remove-only"),
        pytest.param(star(6).complement(), "add-only", id="star6-complement-add-only")])
    def test_walk_stops_at_universe(self, g, mode):
        # the cycles above now end at the root by the degree rule, which
        # does not decide K_{1,5} (maximum degree 5): the walk itself
        # exhausts its universe of 5 pairs
        assert not search_mod._degree_rule(g, mode)
        outcomes = []
        for max_k in (5, 10**9):
            start = time.perf_counter()
            with pytest.raises(BudgetExceededError) as exc:
                asymmetric_index(g, mode=mode, max_k=max_k)
            assert time.perf_counter() - start < 1
            outcomes.append((exc.value.lower_bound, exc.value.universe_exhausted,
                             exc.value.stats.as_dict()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (6, True, {"nodes": 15, "tested": 1, "dedup_hits": 0})

    def test_outputs_pinned(self):
        # sha256 of value, witnesses and stats of the class search
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
            "f3ea19a0418c5bfa210ebb41d596af84fb24ba523302d28a16ab6f8741bff270"


class TestTestedCount:
    """``SearchStats.tested`` counts every asymmetry test the search makes:
    the ``is_asymmetric`` calls of one ``asymmetric_index`` run, on each of
    its ways out, the consistency that ``bench/run.py --trace 1`` checks."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]

        def counted(h):
            count[0] += 1
            return is_asymmetric(h)

        monkeypatch.setattr(search_mod, "is_asymmetric", counted)
        return count

    @pytest.mark.parametrize("g,mode,value", [
        pytest.param(wheel(7), "mixed", 2, id="w7-mixed"),
        pytest.param(wheel(7), "add-only", 2, id="w7-add-only"),
        pytest.param(wheel(7), "remove-only", 2, id="w7-remove-only"),
        pytest.param(cycle(6).add_edge(2, 4).add_edge(2, 5), "mixed", 0,
                     id="asymmetric")])
    def test_returned_search(self, calls, g, mode, value):
        res = asymmetric_index(g, mode)
        assert res.value == value
        assert calls[0] == res.stats.tested

    def test_witness_cap_stops_early(self, calls):
        full = asymmetric_index(wheel(7)).stats.tested
        calls[0] = 0
        res = asymmetric_index(wheel(7), witness_cap=1)
        assert len(res.witnesses) == 1
        assert calls[0] == res.stats.tested < full

    @pytest.mark.parametrize("g,mode,max_k", [
        pytest.param(cycle(8), "mixed", 1, id="c8-max-k-1"),
        pytest.param(cycle(8), "remove-only", None, id="c8-remove-only-exhausted"),
        pytest.param(star(6), "remove-only", None, id="star6-remove-only-exhausted"),
        pytest.param(star(6).complement(), "add-only", None,
                     id="star6-complement-add-only-exhausted"),
        pytest.param(complete(6), "add-only", None, id="k6-add-only-empty")])
    def test_budget_exceeded(self, calls, g, mode, max_k):
        with pytest.raises(BudgetExceededError) as exc:
            asymmetric_index(g, mode, max_k=max_k)
        assert calls[0] == exc.value.stats.tested


class TestEngineWork:
    """The walk's canonical searches run on twin quotients, so the
    refinements one ``asymmetric_index`` run makes stay far below what
    searches of each whole child cost: 428 on K_8 and 2268 on K_{1,8}."""

    @pytest.mark.parametrize("g,ceiling,stats", [
        pytest.param(complete(8), 250, (956, 6, 31), id="k8"),
        pytest.param(star(9), 1000, (5054, 19, 282), id="star9")])
    def test_refinements_under_the_search(self, monkeypatch, g, ceiling, stats):
        calls = 0
        refine = automorphism_mod._refine

        def counted(*args):
            nonlocal calls
            calls += 1
            return refine(*args)

        monkeypatch.setattr(automorphism_mod, "_refine", counted)
        res = asymmetric_index(g)
        assert res.value == 6
        assert (res.stats.nodes, res.stats.tested, res.stats.dedup_hits) == stats
        assert calls <= ceiling


def whole_layer_index(g: Graph, mode: str, max_k: int,
                      cap: int = DEFAULT_WITNESS_CAP):
    """(value, witnesses) by the whole-layer rule, or None past ``max_k``:
    ``flip_orbit_layers`` runs to its end, its parts grouped by k, and the
    first ``cap`` distinct asymmetric children of the first layer that
    holds one are the witnesses, as sorted flip sets.  Every child is
    tested, whatever its flag, so a child flagged symmetric that is not
    would show as another answer."""
    if is_asymmetric(g):
        return 0, [FlipSet()]
    pairs = all_pairs(g.n)
    for k, children in whole_layers(g, max_k, mode):
        hits = []
        for s, rows, _ in children:
            if is_asymmetric(Graph(g.n, rows)) and set(s) not in hits:
                hits.append(set(s))
        if hits:
            return k, sorted((FlipSet(removed={pairs[i] for i in s if g.has_edge(*pairs[i])},
                                      added={pairs[i] for i in s if not g.has_edge(*pairs[i])})
                              for s in hits[:cap]), key=FlipSet.sort_key)
    return None


class TestStreamedLayers:
    """``flip_orbit_layers`` yields each layer in parts, one per class
    expanded, and ``asymmetric_index`` stops at its last witness or when
    the layer after its first hit opens, so it searches fewer classes
    than the whole layers would take, with the same answer."""

    @pytest.fixture
    def searches(self, monkeypatch):
        count = [0]
        search = search_mod._class_search

        def counted(*args):
            count[0] += 1
            return search(*args)

        monkeypatch.setattr(search_mod, "_class_search", counted)
        return count

    # ai is at most 6 on 6 vertices in every mode (tests/test_census.py).
    # The whole layers run up to the value found: a hit in an earlier layer
    # or none in the last would show as another answer.
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_the_whole_layer_rule(self, classes6, mode):
        for g in classes6:
            try:
                res = asymmetric_index(g, mode, max_k=6)
            except BudgetExceededError:
                assert whole_layer_index(g, mode, 6) is None
                continue
            assert whole_layer_index(g, mode, res.value) == \
                (res.value, res.witnesses)

    # torus(6, 7) finds its four witnesses among the children of its
    # first two classes, where the whole layers 1 and 2 take 16 searches;
    # C_6 has only three, so it stops when layer 3 opens, after the root
    # and the three classes of layer 1
    @pytest.mark.parametrize("g,value,witnesses,calls,whole", [
        pytest.param(torus(6, 7), 2, 4, 2, 16, id="torus6x7"),
        pytest.param(cycle(6), 2, 3, 4, 4, id="c6")])
    def test_class_searches_up_to_the_stop(self, searches, g, value, witnesses,
                                           calls, whole):
        res = asymmetric_index(g)
        assert (res.value, len(res.witnesses), searches[0]) == \
            (value, witnesses, calls)
        searches[0] = 0
        whole_layers(g, value)
        assert searches[0] == whole

    def test_stopping_at_an_opening_part_searches_no_further(self, searches):
        layers = flip_orbit_layers(cycle(8), 3)
        assert next(layers) == (1, []) and searches[0] == 0
        k, first = next(layers)
        assert k == 1 and len(first) == 4 and searches[0] == 1
        assert next(layers) == (2, []) and searches[0] == 1
        layers.close()
        assert searches[0] == 1
        # read to the end, each child of layer 1 is searched once and
        # layer 3 is only yielded
        searches[0] = 0
        parts = list(flip_orbit_layers(cycle(8), 3))
        second = [c for k, part in parts if k == 2 for c in part]
        assert searches[0] == 1 + len(first) + len(second)


@pytest.fixture(scope="module")
def degree_rule_cases(classes6):
    """The (class, mode) pairs on 6 and 7 vertices whose one-direction
    search ``_degree_rule`` ends at the root."""
    return [(g, mode) for g in list(classes6) + nonisomorphic_graphs(7)
            for mode in ("remove-only", "add-only")
            if search_mod._degree_rule(g, mode)]


class TestDegreeRule:
    """Where ``_degree_rule`` holds, ``asymmetric_index`` raises at the
    root, with no walk, the bound and flag the walk would give; the walk,
    which the rule does not touch, is the oracle."""

    def test_fires_on_96_pairs(self, degree_rule_cases):
        # a rule that silently stopped firing would pass the oracles below
        assert len(degree_rule_cases) == 96
        assert not any(search_mod._degree_rule(g, "mixed")
                       for g in (cycle(12), Graph.empty(7)))

    def test_universe_holds_no_hit(self, degree_rule_cases):
        for g, mode in degree_rule_cases:
            assert whole_layer_index(g, mode, search_mod._universe_size(g, mode)) \
                is None, to_debug(g)

    @pytest.mark.parametrize("max_k", [0, 1, 3, None, "size"])
    def test_raises_what_the_walk_gives(self, degree_rule_cases, max_k):
        for g, mode in degree_rule_cases:
            size = search_mod._universe_size(g, mode)
            k = size if max_k == "size" else max_k
            budget = min(8 if k is None else k, size)
            last = max((j for j, _ in whole_layers(g, budget, mode)), default=0)
            with pytest.raises(BudgetExceededError) as exc:
                asymmetric_index(g, mode, max_k=k)
            assert (exc.value.lower_bound, exc.value.universe_exhausted) == \
                (budget + 1, last >= size), to_debug(g)
            assert exc.value.stats.as_dict() == {"nodes": 0, "tested": 1,
                                                 "dedup_hits": 0}


# -- orbit-table layers: the small-input oracle of the orbit tests


def group_table(report, cap: int = MAX_CLOSURE) -> np.ndarray:
    """``subgroup_elements(report, cap)`` as ``(elements, n)`` int32 rows."""
    n = sum(map(len, report.orbits))
    return np.array(subgroup_elements(report, cap), dtype=np.int32).reshape(-1, n)


class FlipOrbitTable:
    """Canonicalizes pair-index subsets under ``subgroup_elements(report,
    cap)``.  ``table[i, w]`` is the bit ``1 << j`` of pair i's image j
    under group row w, so a subset's image is the OR of its rows and its
    min-image the least such OR: int64 with at most 62 pairs, Python
    ints above."""

    def __init__(self, report, pairs: list[tuple[int, int]], cap: int):
        # (n, W): row u holds u's image under every element
        perms = np.ascontiguousarray(group_table(report, cap).T)
        pair_id = np.zeros((len(perms), len(perms)), dtype=np.intp)
        for i, (u, v) in enumerate(pairs):
            pair_id[u, v] = pair_id[v, u] = i
        bits = np.array([1 << i for i in range(len(pairs))],
                        dtype=np.int64 if len(pairs) <= 62 else object)
        bit_of = bits[pair_id]                  # pair {u, v}'s bit at [u, v]
        self.table = np.empty((len(pairs), perms.shape[1]), dtype=bits.dtype)
        for i, (u, v) in enumerate(pairs):
            self.table[i] = bit_of[perms[u], perms[v]]

    def extend(self, reps: list[tuple[int, ...]], universe: list[int]) -> set:
        """Min-image forms of every base in ``reps`` (all of one size, each
        a min-image) plus one universe pair not in it.  The columns where
        the OR of a base's rows equals its minimum are its stabilizer, and
        only the least pair of each stabilizer orbit is extended, in
        slices of about 64K words.  A pair already in the base gives a key
        one bit short, which is dropped."""
        if not reps:
            return set()
        table = self.table
        nelems = table.shape[1]
        uni = np.array(universe, dtype=np.intp)
        per_slice = max(1, 65536 // (1 + table.shape[0] // 64) // nelems)
        buf = np.empty((per_slice, nelems), dtype=table.dtype)
        keys: set[int] = set()
        for base in reps:
            packed = np.zeros(nelems, dtype=table.dtype)
            for i in base:
                packed |= table[i]
            stab = np.flatnonzero(packed == packed.min())
            step = max(1, 1_000_000 // len(stab))
            for u0 in range(0, len(uni), step):
                chunk = uni[u0:u0 + step]
                # column 0 is the identity, so equality marks orbit minima
                least = chunk[table[np.ix_(chunk, stab)].min(axis=1)
                              == table[chunk, 0]]
                for l0 in range(0, len(least), per_slice):
                    part = least[l0:l0 + per_slice]
                    rows = table.take(part, axis=0, out=buf[:len(part)], mode="clip")
                    rows |= packed
                    keys.update(rows.min(axis=1).tolist())
        k = len(reps[0]) + 1
        return {tuple(_iter_bits(key)) for key in keys if key.bit_count() == k}


def table_layers(g: Graph, max_k: int, mode: str = "mixed",
                 stats: SearchStats | None = None, cap: int = MAX_CLOSURE):
    """Yield (k, representatives) for k = 1..max_k, each a sorted
    pair-index tuple: at least one per orbit of k-subsets of the mode's
    universe under Aut(g), its least bitmask image, in order.

    Layer 1 is the least pair of each orbit of the generators; layer k
    extends layer k - 1 through ``FlipOrbitTable``, exactly one per orbit
    up to ``cap`` group elements, and above it under a base prefix's
    stabilizer, whose finer orbits may keep one orbit several times.
    ``stats`` gets the candidates (``nodes``) and those not kept
    (``dedup_hits``).  It shares the orbit helpers with the package, not
    the class search.
    """
    stats = SearchStats() if stats is None else stats
    pairs = all_pairs(g.n)
    universe = [i for i, (u, v) in enumerate(pairs) if mode == "mixed"
                or g.has_edge(u, v) == (mode == "remove-only")]
    report = automorphism_group(g)
    reps, table = [()], None
    for k in range(1, max_k + 1):
        if k == 1:
            maps = _pair_maps(report.generators, *_pair_index(g.n))
            keys = {orbit[:1] for orbit in _orbit_partition(universe, maps)}
        else:
            table = table or FlipOrbitTable(report, pairs, cap)
            keys = table.extend(reps, universe)
        nodes = len(reps) * (len(universe) - (k - 1))
        stats.nodes += nodes
        stats.dedup_hits += nodes - len(keys)
        reps = sorted(keys)
        yield k, reps


class TestLayers:
    def test_layer_reps_cover_k6_classes(self):
        # removals from K_6: layer k reaches every class of k-edge graphs on
        # 6 vertices, by complement; the classes of K_6 - {01, 02} and
        # K_6 - {01, 23} have 4 and 3 orbits of edges
        stats = SearchStats()
        layers = whole_layers(complete(6), 3, "remove-only", stats)
        assert [(k, len(children)) for k, children in layers] == \
            [(1, 1), (2, 2), (3, 7)]
        assert [len({canonical_form(rebuilt_child(complete(6), c)) for c in children})
                for _, children in layers] == [1, 2, 5]
        # 15 + 1*14 + 2*13 candidate pairs; layers 1 and 2 are new classes,
        # and the last layer is not canonicalized
        assert (stats.nodes, stats.dedup_hits) == (55, 0)

    def test_layer_one_needs_no_group_table(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the search must not build the group table")

        for name in ("subgroup_elements", "group_elements"):
            monkeypatch.setattr(automorphism_mod, name, forbidden)
        # S_9 fixes the centre: one orbit of edges, one of non-edges
        (_, first), _ = whole_layers(star(10), 2)
        assert len(first) == 2

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("g", [Graph.empty(0), Graph.empty(1), Graph.empty(2),
                                   complete(2)], ids=["n0", "n1", "n2", "k2"])
    def test_tiny_graphs(self, g, mode):
        # no pair or one: every layer past the mode's universe is empty
        size = len([p for p in all_pairs(g.n) if mode == "mixed"
                    or g.has_edge(*p) == (mode == "remove-only")])
        assert [(k, len(sets)) for k, sets in whole_layers(g, 3, mode)] == \
            [(k, int(k <= size)) for k in (1, 2, 3)]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("g", [star(10), cycle(8), petersen(), torus(6, 7)],
                             ids=["star10", "c8", "petersen", "torus6x7"])
    def test_first_layer_nodes_are_the_universe(self, g, mode):
        # nodes counts candidate pairs: at depth 1, the mode's whole universe
        stats = SearchStats()
        whole_layers(g, 1, mode, stats)
        npairs = g.n * (g.n - 1) // 2
        size = {"mixed": npairs, "remove-only": g.edge_count,
                "add-only": npairs - g.edge_count}[mode]
        assert (stats.nodes, stats.dedup_hits) == (size, 0)

    # every graph in every mode, plus C_12 remove-only to full depth: its
    # 66 pairs take keys of more than 62 bits, held as Python ints
    @pytest.mark.parametrize("g,max_k,mode", [
        pytest.param(g, max_k, mode, id=f"{mode}-{name}")
        for mode in ("mixed", "add-only", "remove-only")
        for name, g, max_k in (
            ("star7", star(7), 3), ("k6", complete(6), 3), ("c8", cycle(8), 3),
            ("w7", wheel(7), 3), ("petersen", petersen(), 3),
            ("2k3", disjoint_union(complete(3), complete(3)), 3),
            ("k33", join(Graph.empty(3), Graph.empty(3)), 3),
            ("c12", cycle(12), 2))
    ] + [pytest.param(cycle(12), 12, "remove-only", id="remove-only-c12-k12")])
    def test_reps_are_brute_force_min_images(self, g, max_k, mode):
        pairs = all_pairs(g.n)
        index = {p: i for i, p in enumerate(pairs)}
        elems = group_elements(automorphism_group(g))
        universe = [i for i, (u, v) in enumerate(pairs) if mode == "mixed"
                    or g.has_edge(u, v) == (mode == "remove-only")]
        # the representative is the image with the least bitmask
        key = lambda t: sum(1 << i for i in t)
        stats = SearchStats()
        layers = dict(table_layers(g, max_k, mode, stats))
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
            assert set(layers[k]) == expected, (k, mode)
            cands = [tuple(sorted(base + (e,)))
                     for base in prev for e in universe if e not in base]
            nodes += len(cands)
            dedup += len(cands) - len(expected)
            prev = sorted(expected)
        assert (stats.nodes, stats.dedup_hits) == (nodes, dedup)


def pair_images(g: Graph, elems: np.ndarray) -> np.ndarray:
    """(pairs, elements) array: the index of pair i's image under each row
    of ``elems``."""
    index = np.zeros((g.n, g.n), dtype=np.int64)
    for i, (u, v) in enumerate(all_pairs(g.n)):
        index[u, v] = index[v, u] = i
    return np.array([index[elems[:, u], elems[:, v]] for u, v in all_pairs(g.n)])


def unpruned_layers(g: Graph, max_k: int, mode: str, elems: np.ndarray):
    """Layer representatives as sorted pair-index tuples, and the counts
    (nodes, dedup_hits), with no stabilizer pruning.  Layer 1 is the least
    pair of each orbit of the whole group; every later base is extended by
    every universe pair outside it, keyed by its least bitmask image over
    every row of ``elems``."""
    npairs = g.n * (g.n - 1) // 2
    universe = [i for i, (u, v) in enumerate(all_pairs(g.n)) if mode == "mixed"
                or g.has_edge(u, v) == (mode == "remove-only")]
    whole = group_table(automorphism_group(g), 10**7)
    reps = sorted({(int(i),) for i in pair_images(g, whole)[universe].min(axis=1)})
    bits = np.array([1 << i for i in range(npairs)],
                    dtype=np.int64 if npairs <= 62 else object)
    images = bits[pair_images(g, elems)]
    layers, nodes, dedup = [reps], len(universe), len(universe) - len(reps)
    for k in range(2, max_k + 1):
        keys = set()
        for base in reps:
            cands = [e for e in universe if e not in base]
            nodes += len(cands)
            dedup += len(cands)
            packed = np.bitwise_or.reduce(images[list(base)], axis=0)
            for e in cands:
                key = int((images[e] | packed).min())
                keys.add(tuple(i for i in range(npairs) if key >> i & 1))
        dedup -= len(keys)
        reps = sorted(keys)
        layers.append(reps)
    return layers, nodes, dedup


class TestPrunedExtension:
    # big stabilizers (stars, K_9), keys held as Python ints (more than 62
    # pairs: the torus, and C_12, whose small stabilizers still skip pairs)
    # and a base-prefix stabilizer under a small cap, whose finer orbits the
    # pruning must keep
    @pytest.mark.parametrize("g,max_k,mode,cap", [
        pytest.param(star(9), 6, "mixed", MAX_CLOSURE, id="star9"),
        pytest.param(complete(9), 5, "remove-only", MAX_CLOSURE, id="k9-remove-only"),
        pytest.param(torus(5, 5), 3, "remove-only", MAX_CLOSURE,
                     id="torus5x5-remove-only"),
        pytest.param(cycle(12), 3, "mixed", MAX_CLOSURE, id="c12-mixed"),
        pytest.param(star(8), 4, "mixed", 100, id="star8-subgroup")])
    def test_matches_unpruned_min_images(self, g, max_k, mode, cap):
        rep = automorphism_group(g)
        elems = group_table(rep, cap)
        assert (len(elems) == rep.order) == (cap == MAX_CLOSURE)
        stats = SearchStats()
        got = [reps for _, reps in table_layers(g, max_k, mode, stats, cap)]
        expected, nodes, dedup = unpruned_layers(g, max_k, mode, elems)
        assert got == expected
        assert (stats.nodes, stats.dedup_hits) == (nodes, dedup)


class TestLayerOne:
    """Layer 1 is the least pair index of each orbit of Aut(G) on the
    universe; on the tori the pairs are held above 62 bits.  The orbits
    are read off the group's rows."""

    @pytest.mark.parametrize("r,s,mode,count", [
        (10, 11, "mixed", 35), (10, 11, "remove-only", 2),
        (10, 11, "add-only", 33), (6, 7, "mixed", 15),
        (6, 7, "remove-only", 2), (6, 7, "add-only", 13)])
    def test_least_pair_of_each_orbit(self, r, s, mode, count):
        g = torus(r, s)
        pairs = all_pairs(g.n)
        universe = [i for i, (u, v) in enumerate(pairs) if mode == "mixed"
                    or g.has_edge(u, v) == (mode == "remove-only")]
        images = pair_images(g, group_table(automorphism_group(g)))
        expected = sorted(set(images[universe].min(axis=1).tolist()))
        assert len(expected) == count
        (k, children), = whole_layers(g, 1, mode)
        assert k == 1
        for child in children:
            rebuilt_child(g, child)
        assert [i for s, _, _ in children for i in s] == expected


def orbit_sizes(g: Graph, reps: list[tuple[int, ...]]) -> list[int]:
    """|Aut g| / |Stab(R)| for each pair-index tuple R of one size, with
    Stab(R) counted as the group rows that map R's pairs onto R."""
    elems = group_table(automorphism_group(g))
    if not reps:
        return []
    sets = np.array(reps)                               # (reps, k)
    images = np.sort(pair_images(g, elems)[sets], axis=1)   # (reps, k, W)
    stab = (images == sets[:, :, None]).all(axis=1).sum(axis=1)
    return [len(elems) // int(size) for size in stab]


class TestOrbitCounting:
    """The orbits of layer k partition the k-subsets of the universe U, so
    the orbit sizes of its representatives sum to C(|U|, k): a dropped
    orbit makes the sum too small and a duplicate too large.  The
    stabilizers come from the group's rows, not from the min-image keys."""

    @staticmethod
    def layers(g: Graph, max_k: int, mode: str):
        """(k, representatives as sorted pair-index tuples) per layer."""
        return list(table_layers(g, max_k, mode))

    def check(self, g: Graph, max_k: int, mode: str):
        npairs = g.n * (g.n - 1) // 2
        size = {"mixed": npairs, "remove-only": g.edge_count,
                "add-only": npairs - g.edge_count}[mode]
        for k, reps in self.layers(g, max_k, mode):
            assert sum(orbit_sizes(g, reps)) == comb(size, k), (k, mode)

    @pytest.mark.parametrize("mode", ["mixed", "add-only", "remove-only"])
    def test_six_vertex_classes(self, classes6, mode):
        for g in classes6:
            self.check(g, 3, mode)

    @pytest.mark.parametrize("g,mode", [
        pytest.param(cycle(12), "mixed", id="c12"),
        pytest.param(grid(4, 4), "mixed", id="grid4x4"),
        pytest.param(torus(5, 5), "remove-only", id="torus5x5-remove-only")])
    def test_family_graphs(self, g, mode):
        self.check(g, 3, mode)

    def test_dropped_or_duplicated_orbit_shows(self):
        g = cycle(12)
        _, reps = self.layers(g, 2, "mixed")[-1]
        assert sum(orbit_sizes(g, reps)) == comb(66, 2)
        assert sum(orbit_sizes(g, reps[1:])) < comb(66, 2)
        assert sum(orbit_sizes(g, reps + reps[:1])) > comb(66, 2)


def brute_count(g: Graph, r: int, s: int) -> int:
    """Every (r removals, s additions) flip set, deduplicated by the
    canonical form of the result: the counter's definition, with no
    orbit pruning."""
    edges = list(g.edges())
    non_edges = list(g.non_edges())
    seen: set[bytes] = set()
    for rem in combinations(edges, r):
        for add in combinations(non_edges, s):
            h = apply_flips(g, FlipSet(removed=frozenset(rem), added=frozenset(add)))
            if is_asymmetric(h):
                seen.add(canonical_form(h))
    return len(seen)


class TestCounting:
    def test_matches_brute_count(self, classes6):
        cases = [(g, r, s) for g in classes6
                 for r in range(3) for s in range(3 - r)
                 if r <= g.edge_count and s <= 15 - g.edge_count]
        cases += [(cycle(n), 0, 2) for n in range(6, 11)]
        cases += [(path(7), 1, 1), (path(7), 2, 1)]
        for g, r, s in cases:
            if r and s:
                # mixed edits are not counted: a layer groups classes by
                # distance, not by removals and additions
                with pytest.raises(ValueError, match="all removals or all additions"):
                    count_nonisomorphic_asymmetrizations(g, r, s)
            else:
                assert count_nonisomorphic_asymmetrizations(g, r, s) == \
                    brute_count(g, r, s)

    def test_cycle_removals_count_zero(self):
        # Thm2.2: no pure edge removal asymmetrizes a cycle
        assert [count_nonisomorphic_asymmetrizations(cycle(n), r, 0)
                for n in range(6, 13) for r in range(1, 4)] == [0] * 21

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
        g = from_graph6("ECug")
        for r, s in ((-1, 1), (1, -1), (-2, 3)):
            with pytest.raises(ValueError, match="non-negative"):
                count_nonisomorphic_asymmetrizations(g, r, s)

    def test_dedup_is_by_result_not_flipset(self):
        # C_7 has 3 asymmetrizing chord-pair classes but many labeled pairs.
        assert count_nonisomorphic_asymmetrizations(cycle(7), 0, 2) == 3


def to_debug(g: Graph) -> str:
    from asymindex.graph import to_graph6
    return f"mismatch on {to_graph6(g).decode()}"
