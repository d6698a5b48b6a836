"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``) and enforces the stated wall-clock budget.  Index values
computed along the way are collected so the final bounds sweep covers
every number the suite produced.
"""

import itertools
import random
import time

from asymindex.graph import Graph, disjoint_union, join, to_graph6
from asymindex.automorphism import (automorphism_group, canonical_form,
                                    is_asymmetric)
from asymindex.enumeration import (all_pairs, asymmetric_graphs,
                                   graph_from_mask, nonisomorphic_graphs)
from asymindex.families import (circulant, complete, cycle, generate, grid,
                                path, path_cycle, pendant_extension, star,
                                torus, wheel, witness)
from asymindex.search import (BudgetExceededError,
                              NoAsymmetrizationError, apply_flips,
                              asymmetric_index,
                              count_nonisomorphic_asymmetrizations)
from asymindex.claims import (CONFIRMED, NOT_APPLICABLE, REFUTED,
                              DEFAULT_ALLOWLIST, cycle_augmentation_formula,
                              general_upper_bound, kn_bound_formulas,
                              partition_count, verify)

from conftest import brute_automorphism_count, witnesses_asymmetrize

# every (n, ai) value computed during this run, for the criterion-13 sweep
_AI_VALUES: list[tuple[int, int]] = []


def _ai(g: Graph, **kw) -> int:
    res = asymmetric_index(g, **kw)
    _AI_VALUES.append((g.n, res.value))
    return res.value


def _criterion(num: int, budget_s: float, started: float, ok: bool, text: str):
    elapsed = time.time() - started
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s) {text}"
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s: {elapsed:.1f}s"


def test_criterion_01_small_order_facts(orbit_classes6, classes6):
    t0 = time.time()
    ok = True
    for n in range(2, 6):
        pairs = all_pairs(n)
        for mask in range(1 << len(pairs)):
            if is_asymmetric(graph_from_mask(n, mask, pairs)):
                ok = False
    # class count from pure orbit marking vs canonical augmentation
    ok &= len(orbit_classes6) == len(nonisomorphic_graphs(6)) == 156
    # asymmetric class count reproduced twice over: orbit size 720 means a
    # trivial stabilizer, and the engine must agree on the representatives
    by_orbit = sum(1 for _, size in orbit_classes6 if size == 720)
    by_engine = sum(1 for g in classes6 if is_asymmetric(g))
    ok &= by_orbit == by_engine == 8 > 0
    _criterion(1, 5, t0, ok,
               "no asymmetric graph on 2..5 vertices; 8 of 156 classes at n=6")


def test_criterion_02_paths():
    t0 = time.time()
    ok = True
    for n in range(6, 13):
        ok &= _ai(path(n)) == 1
        ok &= is_asymmetric(path(n).add_edge(1, 3))
    _criterion(2, 5, t0, ok, "ai(P_n) = 1 for n = 6..12 with chord (1,3)")


def test_criterion_03_cycles():
    t0 = time.time()
    ok = True
    for n in range(6, 13):
        ok &= _ai(cycle(n)) == 2
        try:
            asymmetric_index(cycle(n), mode="remove-only", max_k=n)
            ok = False
        except BudgetExceededError as exc:
            ok &= exc.universe_exhausted
    _criterion(3, 30, t0, ok,
               "ai(C_n) = 2 for n = 6..12; pure removal proven impossible")


def test_criterion_04_wheels():
    t0 = time.time()
    ok = True
    for n in range(7, 11):
        ok &= _ai(wheel(n)) == 2
    rows = verify("Thm2.3")
    hub = [r for r in rows if r.claim_id == "Thm2.3"]
    alt = [r for r in rows if r.claim_id == "Thm2.3-alt"]
    ok &= len(hub) >= 4 and len(alt) >= 4
    ok &= all(r.status == CONFIRMED for r in hub + alt)
    _criterion(4, 60, t0, ok,
               "ai(W_n) = 2 for n = 7..10; both hub conventions reported")


def test_criterion_05_complete_graphs():
    t0 = time.time()
    ok = _ai(complete(6)) == 6
    res7 = asymmetric_index(complete(7))
    _AI_VALUES.append((7, res7.value))
    ok &= res7.value == 6
    ok &= res7.stats.dedup_hits > 0  # layer-6 finished under orbit pruning
    _criterion(5, 120, t0, ok, "ai(K_6) = ai(K_7) = 6 with orbit pruning")


def test_criterion_06_circulants():
    t0 = time.time()
    ok = True
    for sign, m in (("+", 17), ("-", 15)):
        ok &= _ai(circulant(m, (1, 4)), max_k=3) == 2
        for name in ("circulant-remove2", "circulant-add2", "circulant-mixed"):
            spec, flips = witness(name, 4, sign)
            ok &= is_asymmetric(apply_flips(generate(spec), flips))
    _criterion(6, 60, t0, ok,
               "ai(C_17(1,4)) = ai(C_15(1,4)) = 2; all three stated edits work")


def test_criterion_07_counting():
    t0 = time.time()
    ok = True
    recorded = {}
    for n in range(6, 13):
        oracle = count_nonisomorphic_asymmetrizations(cycle(n), 0, 2)
        text_value = cycle_augmentation_formula(n, "text")
        recorded[n] = (oracle, text_value, oracle == text_value)
    ok &= recorded[6][2] is True and recorded[6][0] == 1
    ok &= cycle_augmentation_formula(6, "remark") == 5 != recorded[6][0]
    # the per-n comparison is recorded by the ledger rows as well
    ok &= all(r.status in (CONFIRMED, REFUTED) for r in verify("Sec2.2-count"))
    for i in range(6, 61):
        enum = sum(1 for a in range(3, i) for b in range(a + 1, i) if a + b == i)
        ok &= partition_count(i) == enum
    _criterion(7, 60, t0, ok,
               f"chord-pair counts recorded per n (text formula matches only at "
               f"n=6: {dict((k, v[2]) for k, v in recorded.items())})")


def test_criterion_08_complement_duality(classes6):
    t0 = time.time()
    ok = True
    for g in classes6:
        value = _ai(g)
        ok &= value == asymmetric_index(g.complement()).value
    _criterion(8, 600, t0, ok,
               "ai(G) = ai(complement(G)) on all 156 classes, zero exceptions")


def test_criterion_09_join_union_preservation(classes6):
    t0 = time.time()
    asym = [g for g in classes6 if is_asymmetric(g)]
    ok = len(asym) == 8
    for g, h in itertools.permutations(asym, 2):
        ok &= is_asymmetric(join(g, h))
        ok &= is_asymmetric(disjoint_union(g, h))
    _criterion(9, 60, t0, ok,
               "join and union asymmetric for all 56 ordered class pairs")


def test_criterion_10_extension_lemma():
    t0 = time.time()
    failures = []
    for n in (6, 7, 8):
        for g in asymmetric_graphs(n):
            extended = pendant_extension(g)
            if not is_asymmetric(extended):
                from asymindex.automorphism import find_nontrivial_automorphism, cycles_str
                failures.append((to_graph6(g).decode(),
                                 cycles_str(find_nontrivial_automorphism(extended))))
    _criterion(10, 600, t0, not failures,
               f"pendant extension keeps asymmetry on 6..8 vertices "
               f"(refutations: {failures or 'none'})")


def test_criterion_11_grids():
    t0 = time.time()
    ok = True
    try:
        asymmetric_index(grid(2, 2))
        ok = False
    except NoAsymmetrizationError:
        pass
    statuses = {}
    for (r, s) in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        res = asymmetric_index(grid(r, s))
        _AI_VALUES.append((r * s, res.value))
        statuses[(r, s)] = (res.value, res.witnesses[0])
        ok &= res.value == 1
        ok &= is_asymmetric(apply_flips(grid(r, s), res.witnesses[0]))
    _criterion(11, 600, t0, ok,
               f"grid indices {dict((k, v[0]) for k, v in statuses.items())}; "
               f"(2,2) has no asymmetrization")


def test_criterion_12_products_and_torus():
    t0 = time.time()
    ok = True
    for s in (3, 4):
        ok &= _ai(path_cycle(2, s)) == 2
    rows = {(r.params["r"], r.params["s"]): r for r in verify("Thm2.10")}
    sub, big = rows[(6, 7)], rows[(10, 11)]
    ok &= sub.status == NOT_APPLICABLE  # recorded as exploratory, sub-range
    ok &= sub.allowlist_key is None
    ok &= big.status == REFUTED and big.allowlist_key == "Thm2.10-nonsquare"
    # the search's value, and each of its witnesses re-validated by VF2
    for (r, s), row in rows.items():
        ok &= row.computed == row.ai == row.evidence["value"] == 2
        ok &= witnesses_asymmetrize(torus(r, s), row.evidence["witnesses"])
        _AI_VALUES.append((r * s, 2))
    union, = [r for r in verify("Thm3.1") if r.params["components"] == "P6+P6"]
    ok &= witnesses_asymmetrize(disjoint_union(path(6), path(6)),
                                union.evidence["witnesses"])
    _criterion(12, 1800, t0, ok,
               "ai(P_2xC_3) = ai(P_2xC_4) = 2; C_6xC_7 and C_10xC_11 searched "
               "to 2, every witness and P6+P6's checked by VF2")


def test_criterion_13_bounds_ledger():
    t0 = time.time()
    ok = True
    for n in range(6, 10):
        value = _ai(star(n))
        ok &= (n - 1) // 2 <= value <= n - 1
    formulas = kn_bound_formulas(8)
    ok &= formulas["lower_printed"] == 11 > 6 == formulas["upper"]
    printed_rows = verify("Thm2.6-printed-lower")
    ok &= printed_rows[0].status == REFUTED
    ok &= printed_rows[0].allowlist_key in DEFAULT_ALLOWLIST
    ok &= all(r.status == CONFIRMED for r in verify("Thm3.2"))
    ok &= all(r.status == CONFIRMED for r in verify("Ex3.1", l=(3, 4)))
    # universal bound over every index computed in this run (the full
    # suite registers the 156 duality instances and every family value)
    ok &= len(_AI_VALUES) >= 4
    for n, value in _AI_VALUES:
        ok &= 0 <= value <= general_upper_bound(n)
    _criterion(13, 600, t0, ok,
               f"bounds hold for all {len(_AI_VALUES)} computed indices; "
               "star bounds exact; printed K_n lower bound refuted+allowlisted")


def test_criterion_14_engine_oracle_equivalence(classes6):
    t0 = time.time()
    ok = True
    for g in classes6:
        ok &= automorphism_group(g).order == brute_automorphism_count(g)
    rng = random.Random(20240809)
    for _ in range(200):
        pairs = all_pairs(7)
        mask = rng.randrange(1 << len(pairs))
        g = graph_from_mask(7, mask, pairs)
        ok &= automorphism_group(g).order == brute_automorphism_count(g)
    for _ in range(500):
        n = rng.randrange(1, 13)
        pairs = all_pairs(n)
        g = graph_from_mask(n, rng.randrange(1 << len(pairs)), pairs)
        perm = list(range(n))
        rng.shuffle(perm)
        ok &= canonical_form(g) == canonical_form(g.relabel(tuple(perm)))
    _criterion(14, 300, t0, ok,
               "group orders match n! enumeration (156 classes + 200 random); "
               "canonical form invariant on 500 relabelings")
