"""Claim ledger: formulas against enumeration oracles, statuses, evidence
discipline, and determinism."""

import ast
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from asymindex import claims
from asymindex.claims import (cycle_augmentation_formula,
                              kn_bound_formulas, partition_count, verify,
                              verify_suite, DEFAULT_ALLOWLIST, CONFIRMED,
                              REFUTED, NOT_APPLICABLE)
from asymindex.automorphism import canonical_form
from asymindex.families import cycle, path
from asymindex.graph import disjoint_union, from_graph6
from asymindex.search import (BudgetExceededError, SearchStats, asymmetric_index,
                              count_nonisomorphic_asymmetrizations)

BENCH_CHECKS = Path(__file__).resolve().parent.parent / "bench" / "checks.py"


class TestPartitionCount:
    def test_examples(self):
        assert partition_count(10) == 2   # (3,7), (4,6)
        assert partition_count(7) == 1    # (3,4)
        assert partition_count(6) == 0    # 3+3 not distinct

    def test_matches_enumeration_to_60(self):
        for i in range(6, 61):
            oracle = sum(1 for a in range(3, i) for b in range(a + 1, i)
                         if a + b == i)
            assert partition_count(i) == oracle

    def test_domain_error(self):
        with pytest.raises(ValueError):
            partition_count(5)


class TestCycleAugmentationFormula:
    def test_text_variant_at_six(self):
        assert cycle_augmentation_formula(6, "text") == 1

    def test_remark_variant_at_six(self):
        assert cycle_augmentation_formula(6, "remark") == 5

    def test_text_matches_oracle_only_at_six(self):
        matches = {}
        for n in range(6, 10):
            oracle = count_nonisomorphic_asymmetrizations(cycle(n), 0, 2)
            matches[n] = cycle_augmentation_formula(n, "text") == oracle
        assert matches[6] is True
        assert not all(matches.values())  # undercounts from n = 7 on

    def test_errors(self):
        with pytest.raises(ValueError):
            cycle_augmentation_formula(5, "text")
        with pytest.raises(ValueError):
            cycle_augmentation_formula(8, "banana")


class TestKnBounds:
    def test_n8_values(self):
        values = kn_bound_formulas(8)
        assert values == {"upper": 6, "lower_printed": 11, "lower_asymptotic": 6}
        assert values["lower_printed"] > values["upper"]  # the printed misprint

    def test_n14_asymptotic(self):
        assert kn_bound_formulas(14)["lower_asymptotic"] == 12

    def test_n28_upper(self):
        assert kn_bound_formulas(28)["upper"] == 26

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kn_bound_formulas(7)


class TestVerify:
    def test_thm21_all_confirmed(self):
        rows = verify("Thm2.1", n=(6, 12))
        value_rows = [r for r in rows if r.claim_id == "Thm2.1"]
        assert len(value_rows) == 7
        assert all(r.status == CONFIRMED for r in rows)

    def test_thm28_boundary_refuted(self):
        rows = verify("Thm2.8")
        boundary = [r for r in rows if r.params.get("r") == 2 and r.params.get("s") == 2]
        assert len(boundary) == 1
        assert boundary[0].status == REFUTED
        assert boundary[0].computed == "no-asymmetrization"
        assert boundary[0].allowlist_key == "Thm2.8-boundary"

    def test_thm24_confirmed_with_witnesses(self):
        rows = verify("Thm2.4")
        assert {r.claim_id for r in rows} == {"Thm2.4", "Thm2.4-witness"}
        assert all(r.status == CONFIRMED for r in rows)
        assert sum(r.claim_id == "Thm2.4-witness" for r in rows) == 6

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="unknown claim"):
            verify("Thm9.9")

    def test_empty_range_rejected(self):
        # an empty instance range would otherwise read as a passing check
        with pytest.raises(ValueError, match="empty instance range"):
            verify("Lem2.1", i=[])
        with pytest.raises(ValueError, match="empty instance range"):
            verify("Thm2.2", n=(8, 6))

    def test_alias(self):
        assert {r.claim_id for r in verify("Thm2.7")} == {"Thm1.2"}

    def test_granular_id_filters_rows(self):
        rows = verify("Thm2.6-printed-lower")
        assert len(rows) == 1
        assert rows[0].status == REFUTED
        assert rows[0].allowlist_key in DEFAULT_ALLOWLIST

    def test_lem14_overreach_documented(self):
        rows = verify("Lem1.4")
        by_graph = {r.params["graph"]: r for r in rows}
        assert by_graph["K_1,5"].status == CONFIRMED
        assert by_graph["C_8"].status == REFUTED
        assert by_graph["C_8"].computed == {"lower": 3, "ai": 2, "upper": None}
        assert by_graph["C_8"].allowlist_key == "Lem1.4-overreach"

    @pytest.mark.parametrize("claim_id", ["Lem1.4", "Thm1.2", "Thm2.5",
                                          "Thm2.6", "Thm2.10", "Thm3.1", "Prop1.2"])
    def test_budget_stop_gives_rows(self, claim_id):
        # a search that stops at the layer budget yields a budget-exceeded
        # row carrying the bound proven for the row's own graph
        stopped = [r for r in verify(claim_id, budget=1)
                   if r.status == claims.BUDGET_EXCEEDED]
        assert stopped
        for r in stopped:
            assert r.computed == "> 1"
            assert r.evidence == {"proven_lower_bound": 2} and r.ai is None
            if "graph6" in r.params:
                assert asymmetric_index(from_graph6(r.params["graph6"])).value >= 2

    def test_removal_free_row_honours_budget(self):
        # C_8 has 8 edges: budget 2 stops the removal search early, while
        # a budget that covers every edge still exhausts the universe
        row = verify("Thm2.2-remove-only", n=8, budget=2)[0]
        assert row.status == claims.BUDGET_EXCEEDED and row.computed == "> 2"
        row = verify("Thm2.2-remove-only", n=8, budget=9)[0]
        assert row.status == CONFIRMED
        assert row.computed == "impossible (universe exhausted)"

    def test_further_search_stop_carries_no_bound(self):
        # the row names P_6 (ai = 1); the stop of a further search bounds
        # C_8, not P_6, so the row keeps P_6's exact index and no bound
        row = claims._search_row("X", {}, "text", path(6), 1,
                                 lambda res: asymmetric_index(cycle(8), max_k=1))
        assert row.status == claims.BUDGET_EXCEEDED
        assert row.computed == {"ai": 1}
        assert "proven_lower_bound" not in row.evidence and row.ai is None

    def test_prop12_searches_each_class_once(self, monkeypatch):
        searched = Counter()

        def counted(g, **kwargs):
            searched[canonical_form(g)] += 1
            return asymmetric_index(g, **kwargs)

        monkeypatch.setattr(claims, "asymmetric_index", counted)
        rows = verify("Prop1.2")
        assert len(rows) == len(searched) == 156
        assert set(searched.values()) == {1}
        assert all(r.status == CONFIRMED for r in rows)

    def test_prop12_complement_stop_is_a_further_search_stop(self, monkeypatch):
        # a stop in the complement's class leaves P_6's row its exact index
        # and no bound; the complement's own row carries the bound
        stopped = canonical_form(path(6).complement())

        def search(g, **kwargs):
            if canonical_form(g) == stopped:
                raise BudgetExceededError(3, SearchStats())
            return asymmetric_index(g, **kwargs)

        monkeypatch.setattr(claims, "asymmetric_index", search)
        rows = {canonical_form(from_graph6(r.params["graph6"])): r
                for r in verify("Prop1.2")}
        row = rows[canonical_form(path(6))]
        assert row.status == claims.BUDGET_EXCEEDED and row.computed == {"ai": 1}
        assert row.evidence == {"note": "a further search stopped at the layer budget"}
        row = rows[stopped]
        assert row.status == claims.BUDGET_EXCEEDED and row.computed == "> 2"
        assert row.evidence == {"proven_lower_bound": 3}

    def test_refutations_carry_evidence_or_key(self):
        for cid in ("Rem2.1", "Sec2.2-cycle-aut", "Thm2.9"):
            for row in verify(cid):
                if row.status == REFUTED:
                    assert row.allowlist_key is not None
                    assert row.evidence

    def test_ex31_and_thm32(self):
        assert all(r.status == CONFIRMED for r in verify("Ex3.1"))
        rows = verify("Thm3.2")
        assert [r.params for r in rows] == [{"s": 8, "t": 1}, {"s": 8, "t": 2},
                                            {"s": 9, "t": 3}]
        assert all(r.status == CONFIRMED for r in rows)

    def test_thm31_degenerate_not_applicable(self):
        rows = verify("Thm3.1")
        degenerate = [r for r in rows if r.params["components"] == "P6+P6"]
        assert degenerate[0].status == NOT_APPLICABLE
        assert degenerate[0].ai == degenerate[0].evidence["value"] == 1
        assert degenerate[0].evidence["note"].startswith("isomorphic components")

    def test_thm31_component_searches_need_no_budget(self):
        # the component searches take no layer budget, which holds the
        # rows to the union's budget while no component outranks its union
        for parts in claims._COMPONENTS.values():
            assert max(asymmetric_index(c).value for c in parts) <= \
                asymmetric_index(disjoint_union(*parts)).value

    @pytest.mark.parametrize("budget", [None, 0, 1, 2])
    def test_outside_rows_carry_no_key(self, budget):
        # the (6,7) torus and P6+P6 are outside their claims: whatever their
        # search gives, the rows read not-applicable with no allowlist key
        rows = [r for r in verify("Thm2.10", budget=budget) + verify("Thm3.1", budget=budget)
                if r.params in ({"r": 6, "s": 7}, {"components": "P6+P6"})]
        assert len(rows) == 2
        for r in rows:
            assert r.status == NOT_APPLICABLE and r.allowlist_key is None
            assert r.evidence["note"]

    def test_outside_row_keeps_a_budget_stop(self):
        # a stopped search is reported as such, under not-applicable
        sub, big = verify("Thm2.10", budget=1)
        assert sub.params == {"r": 6, "s": 7} and sub.status == NOT_APPLICABLE
        assert sub.computed == "> 1" and sub.ai is None
        assert sub.evidence == {"proven_lower_bound": 2, "note": "exploratory: below "
                                "the claimed range r, s >= 10"}
        assert big.status == claims.BUDGET_EXCEEDED

    def test_report_serialization(self):
        row = verify("Lem2.1", i=7)[0]
        data = row.to_dict()
        assert data["claim"] == "Lem2.1" and data["status"] == CONFIRMED
        assert isinstance(data["params"], dict)

    def test_prop11_proves_group_equality(self, monkeypatch):
        # equal orders alone do not prove Aut(G) = Aut(complement(G)): a
        # generator that fails the cross-check refutes every row it meets
        rows = verify("Prop1.1", n=4)
        assert all(r.computed["claimed"] == r.computed["computed"] for r in rows)
        monkeypatch.setattr(claims, "is_automorphism", lambda g, p: False)
        rows = verify("Prop1.1", n=4)
        assert {r.status for r in rows if r.computed["claimed"] > 1} == {REFUTED}
        assert all(r.computed["computed"] is None
                   for r in rows if r.status == REFUTED)

    def test_asymmetric_row_checks_size(self):
        # an asymmetrizing edit set of the wrong size refutes the row
        check = claims._Check("X", "text", ((8, 1),), claims.split,
                              edits=lambda s, t: claims.witness(
                                  "split-construction", s, t)[1],
                              size=lambda s, t: s - 3 + t - 1)
        row, = claims._family_rows((check,), ("s", "t"), None)
        assert row.status == REFUTED
        assert row.computed == {"size": 6, "asymmetric": True}

    def test_determinism(self):
        first = [r.to_dict() for r in verify("Thm2.3")]
        second = [r.to_dict() for r in verify("Thm2.3")]
        assert first == second


@pytest.fixture(scope="module")
def suite_rows():
    return verify_suite()


def bench_ledger_pins() -> dict:
    """The ledger checker's pinned constants, read from ``bench/checks.py``
    with ``ast``; the bench is not imported."""
    names = {"LEDGER_ROWS", "LEDGER_STATUS", "LEDGER_REFUTED_KEY"}
    pins = {node.targets[0].id: ast.literal_eval(node.value)
            for node in ast.parse(BENCH_CHECKS.read_text()).body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names}
    assert set(pins) == names
    return pins


class TestSuite:

    def test_every_catalog_claim_has_rows(self, suite_rows):
        produced = {r.claim_id for r in suite_rows}
        for cid in claims.CLAIM_IDS:
            assert any(p in produced for p in claims.ROW_IDS[cid]), cid

    def test_bench_ledger_checker_agrees(self, suite_rows):
        # bench/checks.py pins the ledger's row count, its (claim, status)
        # counts and the key of each refuted claim; the bench marks a pass
        # incorrect when the suite leaves them
        pins = bench_ledger_pins()
        assert len(suite_rows) == pins["LEDGER_ROWS"]
        assert Counter((r.claim_id, r.status) for r in suite_rows) == Counter(
            {(c, s): k for c, by in pins["LEDGER_STATUS"].items() for s, k in by.items()})
        assert {(r.claim_id, r.allowlist_key) for r in suite_rows if r.status == REFUTED} \
            == set(pins["LEDGER_REFUTED_KEY"].items())

    def test_ledger_pinned(self, suite_rows):
        ledger = json.dumps([r.to_dict() for r in suite_rows], sort_keys=True)
        assert hashlib.sha256(ledger.encode()).hexdigest() == (
            "ff4e88dd551d760127a8b7d8080a3faa6bea133a1b413a19ec4707be9144c77d")

    # each entry's default range, given explicitly, reaches the same rows
    # through the range path as the suite does through the default path
    @pytest.mark.parametrize("claim_id,param,values", [
        pytest.param(cid, param, values, id=cid) for cid, param, values in (
            ("Prop1.1", "n", [6]), ("Prop1.3", "n", [6]), ("Prop1.4", "n", [6]),
            ("Lem1.1", "n", [6, 7]), ("Lem2.1", "i", list(range(6, 61))),
            ("Sec2.2-cycle-aut", "n", list(range(6, 11))),
            ("Rem2.1", "n", list(range(6, 13))),
            ("Sec2.2-count", "n", list(range(6, 13))),
            ("Thm2.4", "n", [4]), ("Thm2.5", "n", list(range(6, 10))),
            ("Ex3.1", "l", [3, 4]))])
    def test_range_path_matches_suite(self, suite_rows, claim_id, param, values):
        rows = verify(claim_id, **{param: values})
        parts = claims.ROW_IDS[claim_id]
        assert [r.to_dict() for r in rows] == \
            [r.to_dict() for r in suite_rows if r.claim_id in parts]

    def test_ranged_entries_have_domains(self):
        # Prop1.1 holds on every order; every other ranged entry has a
        # domain minimum, which the next test exercises
        assert [cid for cid, entry in claims._CATALOG.items()
                if entry.param and entry.minimum is None] == ["Prop1.1"]

    @pytest.mark.parametrize("claim_id,param,minimum", [
        pytest.param(rid, entry.param, entry.minimum, id=rid)
        for cid, entry in claims._CATALOG.items() if entry.minimum is not None
        for rid in claims.ROW_IDS[cid]])
    def test_below_domain_not_applicable(self, claim_id, param, minimum):
        # a value below the domain gives rows under the id asked for, and
        # runs no check
        rows = verify(claim_id, **{param: minimum - 1})
        assert rows
        assert all(r.status == NOT_APPLICABLE and r.claim_id == claim_id
                   for r in rows)

    def test_per_claim_rows_match_suite(self, suite_rows):
        # one verify() per catalog entry gives the suite's rows less the
        # sweep row, as bench/run.py --trace 1 checks on the ledger
        def dicts(rows):
            return sorted(json.dumps(r.to_dict(), sort_keys=True) for r in rows)

        per_claim = [r for cid in claims.CLAIM_IDS for r in verify(cid)]
        assert dicts(per_claim) == dicts(r for r in suite_rows
                                         if r.claim_id != "Thm1.2-sweep")

    def test_row_ids_match_catalog(self, suite_rows):
        produced = {r.claim_id for r in suite_rows} - {"Thm1.2-sweep"}
        assert produced == set().union(*claims.ROW_IDS.values())

    def test_no_empty_rows(self, suite_rows):
        for r in suite_rows:
            assert r.status in (CONFIRMED, REFUTED, NOT_APPLICABLE,
                                claims.BUDGET_EXCEEDED)
            assert r.expected

    def test_all_refutations_are_allowlisted_by_default(self, suite_rows):
        for r in suite_rows:
            if r.status == REFUTED:
                assert r.allowlist_key in DEFAULT_ALLOWLIST, (r.claim_id, r.params)

    def test_sweep_row_confirms_universal_bound(self, suite_rows):
        sweep = [r for r in suite_rows if r.claim_id == "Thm1.2-sweep"]
        assert len(sweep) == 1
        assert sweep[0].status == CONFIRMED
        # at least the 156 complement-duality instances feed the sweep
        assert sweep[0].params["values_checked"] > 156

    def test_outside_rows_feed_the_sweep(self, suite_rows):
        # a not-applicable row outside its claim keeps the search's value,
        # and the sweep checks it
        sub, union = [r for r in suite_rows
                      if r.params in ({"r": 6, "s": 7}, {"components": "P6+P6"})]
        assert (sub.computed, sub.ai, sub.vertices) == (2, 2, 42)
        assert (union.computed, union.ai, union.vertices) == \
            ({"lower": 1, "ai": 1, "upper": 2}, 1, 12)
        assert sub.status == union.status == NOT_APPLICABLE
        assert sub.allowlist_key is union.allowlist_key is None

    def test_sweep_rows_carry_vertex_counts(self, suite_rows):
        fed = [r for r in suite_rows if r.ai is not None]
        sweep = next(r for r in suite_rows if r.claim_id == "Thm1.2-sweep")
        assert len(fed) == sweep.params["values_checked"] == 209
        by_claim = {}
        for r in fed:
            by_claim.setdefault(r.claim_id, []).append(r.vertices)
        assert sorted(by_claim["Thm2.4"]) == [15, 17]
        assert sorted(by_claim["Thm2.3-alt"]) == [7, 8, 9, 10]
        assert sorted(by_claim["Thm3.1"]) == [12, 12, 13]
        assert sorted(by_claim["Thm2.10"]) == [42, 110]
        for r in fed:
            if "graph6" in r.params:
                assert r.vertices == from_graph6(r.params["graph6"]).n
