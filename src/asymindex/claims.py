"""Executable claim catalog: every numbered statement the toolkit tracks
is encoded as a check over concrete instances and scored confirmed,
refuted, budget-exceeded, or not-applicable.

Claims are treated as hypotheses, never as fixtures: the catalog exists
to evaluate them against the search and automorphism engines, and any
refutation must carry machine-checkable evidence (an explicit
automorphism, or an explicit smaller edit witness).  Known textual
defects ship in a default allowlist so the ``verify`` command can keep a
clean exit code while still printing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from math import factorial
from typing import Callable, Iterable, Iterator

from .graph import Graph, disjoint_union, join, to_graph6
from .automorphism import (_pair_orbits, automorphism_group, cycles_str,
                           find_nontrivial_automorphism, is_asymmetric,
                           is_automorphism, transposable_pairs)
from .enumeration import (asymmetric_forest_edges, asymmetric_graphs,
                          asymmetric_trees, nonisomorphic_graphs)
from .families import (FamilySpec, cycle, cycle_with_pendant_paths, generate,
                       path, pendant_extension, star, torus, wheel, witness)
from .search import (AiResult, BudgetExceededError, FlipSet,
                     NoAsymmetrizationError, apply_flips, asymmetric_index,
                     count_nonisomorphic_asymmetrizations)

CONFIRMED = "confirmed"
REFUTED = "refuted"
BUDGET_EXCEEDED = "budget-exceeded"
NOT_APPLICABLE = "not-applicable"

#: Known text defects tolerated by default; ``verify`` prints each use.
DEFAULT_ALLOWLIST = (
    "Thm2.6-printed-lower",    # printed K_n lower bound exceeds the upper bound
    "Rem2.1-remark-variant",   # remark's chord-count summand disagrees with enumeration
    "Sec2.2-count-text",       # in-text chord-count summand undercounts for n >= 7
    "Thm2.8-boundary",         # r = s = 2 grid cannot be asymmetrized at all
    "Thm2.8-corner-witness-r2",  # corner removal keeps a row swap when r = 2
    "Thm2.9-witness-cube",     # stated two-removal witness fails on P_2 x C_4
    "Sec2.2-cycle-aut",        # cycle automorphism group is dihedral, not symmetric
    "Lem1.4-overreach",        # transposable-set bound exceeds ai on cycles (C_8)
    "Thm2.10-nonsquare",       # two flips already asymmetrize C_r x C_s for r != s
)


@dataclass
class ClaimReport:
    """Outcome of one claim instance.

    ``ai`` and ``vertices`` are the exact index a row computed and the
    vertex count of its graph; the Thm1.2 sweep reads them, and
    ``to_dict`` leaves them out.
    """

    claim_id: str
    params: dict
    expected: str
    computed: object
    status: str
    evidence: dict = field(default_factory=dict)
    allowlist_key: str | None = None
    ai: int | None = None
    vertices: int | None = None

    def to_dict(self) -> dict:
        return {"claim": self.claim_id, "params": self.params,
                "expected": self.expected, "computed": self.computed,
                "status": self.status, "evidence": self.evidence,
                "allowlist_key": self.allowlist_key}


# -- closed-form expressions ---------------------------------------------


def partition_count(i: int) -> int:
    """Partitions of i into two distinct parts, both at least 3."""
    if i < 6:
        raise ValueError("partition count defined for i >= 6")
    return (i - 5) // 2


def cycle_augmentation_formula(n: int, variant: str = "text") -> int:
    """Claimed number of asymmetrizing chord pairs on an n-cycle.

    ``text`` uses the summand floor((n-i+3)/2); ``remark`` uses the
    printed floor((n+i-3)/2).
    """
    if n < 6:
        raise ValueError("cycle augmentation formula defined for n >= 6")
    if variant == "text":
        return sum(((i - 5) // 2) * ((n - i + 3) // 2) for i in range(7, n + 2))
    if variant == "remark":
        return sum(((i - 5) // 2) * ((n + i - 3) // 2) for i in range(7, n + 2))
    raise ValueError(f"unknown variant {variant!r}; expected 'text' or 'remark'")


def kn_bound_formulas(n: int) -> dict:
    """The three printed complete-graph bound expressions, verbatim."""
    if n < 8:
        raise ValueError("complete-graph bound formulas stated for n >= 8")
    return {"upper": n - 2,
            "lower_printed": n - (n - 1) // 7 + 4,
            "lower_asymptotic": 6 * (n // 7)}


def general_upper_bound(n: int) -> int:
    """n(n-1)/2 - (n-2), the universal index upper bound."""
    return n * (n - 1) // 2 - (n - 2)


# -- evidence helpers ------------------------------------------------------


def _ai_evidence(res: AiResult, cap: int = 2) -> dict:
    return {"value": res.value,
            "witnesses": [w.as_dict() for w in res.witnesses[:cap]],
            "stats": res.stats.as_dict()}


def _aut_evidence(g: Graph) -> dict:
    sigma = find_nontrivial_automorphism(g)
    return {"automorphism": cycles_str(sigma) if sigma else None}


def _asym_row(claim_id: str, params: dict, text: str, g: Graph,
              computed: dict | None = None, evidence: dict | None = None,
              key: str | None = None) -> ClaimReport:
    """Row for "``g`` is asymmetric": ``computed`` gains the verdict, and a
    refutation adds an automorphism to ``evidence`` and carries ``key``."""
    ok = is_asymmetric(g)
    return ClaimReport(
        claim_id, params, text, {**(computed or {}), "asymmetric": ok},
        CONFIRMED if ok else REFUTED,
        {**(evidence or {}), **({} if ok else _aut_evidence(g))},
        allowlist_key=None if ok else key)


def _search_row(claim_id: str, params: dict, text: str, g: Graph,
                budget: int | None, judge: Callable, key: str | None = None
                ) -> ClaimReport:
    """Row for a claim about ai(``g``), the graph the row names.

    ``judge(res)`` maps the search of ``g`` to (computed, holds,
    evidence); a refutation carries ``key``.  A search that stops at the
    layer budget gives a budget-exceeded row.  Only ``g``'s own stop is
    a proven lower bound of ``g``; a stop in one of ``judge``'s further
    searches bounds another graph, so that row carries none.
    """
    try:
        res = asymmetric_index(g, max_k=budget)
    except BudgetExceededError as exc:
        return ClaimReport(claim_id, params, text, f"> {exc.lower_bound - 1}",
                           BUDGET_EXCEEDED, {"proven_lower_bound": exc.lower_bound})
    try:
        computed, ok, evidence = judge(res)
    except BudgetExceededError:
        return ClaimReport(claim_id, params, text, {"ai": res.value}, BUDGET_EXCEEDED,
                           {"note": "a further search stopped at the layer budget"})
    return ClaimReport(claim_id, params, text, computed, CONFIRMED if ok else REFUTED,
                       evidence, allowlist_key=None if ok else key,
                       ai=res.value, vertices=g.n)


def _bounds_row(claim_id: str, params: dict, text: str, g: Graph,
                lower: int, upper: int, budget: int | None) -> ClaimReport:
    """Row for "lower <= ai(``g``) <= upper", with the search's evidence."""
    return _search_row(claim_id, params, text, g, budget, lambda res: (
        {"lower": lower, "ai": res.value, "upper": upper},
        lower <= res.value <= upper, _ai_evidence(res, cap=1)))


def _norm_range(value) -> list[int]:
    if isinstance(value, int):
        return [value]
    if isinstance(value, tuple) and len(value) == 2:
        values = list(range(value[0], value[1] + 1))
    else:
        values = list(value)
    if not values:  # an empty check must not read as a pass
        raise ValueError(f"empty instance range {value!r}")
    return values


# -- claim handlers --------------------------------------------------------
# Each handler yields ClaimReport rows.  ``budget`` is the search layer
# budget; in a ranged handler the argument after it holds the in-domain
# values of its range parameter and defaults to desk scale.

_PROP_1_2 = "ai(G) = ai(complement(G))"
_LEM_1_1 = "pendant extension of an asymmetric graph is asymmetric"
_LEM_2_1 = "floor((i-5)/2) distinct partitions"
_THM_2_4 = "ai(C_{n^2 +/- 1}(1, n)) = 2"
_THM_2_5 = "floor((n-1)/2) <= ai(K_{1,n-1}) <= n-1"
_EX_3_1 = ("joining each pendant path to its own cycle vertex gives an "
           "asymmetric graph (ai <= l)")


def _prop_1_1(budget, orders=(6,)) -> Iterator[ClaimReport]:
    """Aut(G) equals Aut(complement(G)), checked on all classes of order n."""
    for g in (g for n in orders for g in nonisomorphic_graphs(n)):
        gc = g.complement()
        rep, repc = automorphism_group(g), automorphism_group(gc)
        cross_ok = all(is_automorphism(gc, p) for p in rep.generators) and \
            all(is_automorphism(g, p) for p in repc.generators)
        same = rep.order == repc.order and rep.orbits == repc.orbits and cross_ok
        yield ClaimReport(
            "Prop1.1", {"graph6": to_graph6(g).decode()},
            "Aut(G) = Aut(complement(G))",
            {"order": rep.order, "complement_order": repc.order},
            CONFIRMED if same else REFUTED,
            {} if same else {"generators_cross_check": cross_ok})


def _prop_1_2(budget, orders=(6,)) -> Iterator[ClaimReport]:
    """ai(G) = ai(complement(G)); witnesses map by swapping removed/added."""
    def judge(g: Graph, res: AiResult):
        gc = g.complement()
        resc = asymmetric_index(gc, max_k=budget)
        mapped_ok = all(is_asymmetric(apply_flips(gc, w.inverse()))
                        for w in res.witnesses)
        ok = res.value == resc.value and mapped_ok
        return ({"ai": res.value, "complement_ai": resc.value,
                 "witness_map_ok": mapped_ok},
                ok, {} if ok else {"witness": _ai_evidence(res)})

    for g in (g for n in orders for g in nonisomorphic_graphs(n)):
        yield _search_row("Prop1.2", {"graph6": to_graph6(g).decode()}, _PROP_1_2,
                          g, budget, partial(judge, g))


def _pair_preservation(claim_id: str, combine, text: str, budget,
                       orders=(6,)) -> Iterator[ClaimReport]:
    """``combine`` of two non-isomorphic asymmetric graphs is asymmetric."""
    for n in orders:
        asym = asymmetric_graphs(n)
        for i, g in enumerate(asym):
            for j, h in enumerate(asym):
                if i != j:
                    yield _asym_row(
                        claim_id, {"g": to_graph6(g).decode(),
                                   "h": to_graph6(h).decode()},
                        text, combine(g, h))


def _lem_1_1(budget, orders=(6, 7)) -> Iterator[ClaimReport]:
    """Single-vertex pendant extension preserves asymmetry."""
    for order in orders:
        for g in asymmetric_graphs(order):
            yield _asym_row("Lem1.1", {"n": order, "graph6": to_graph6(g).decode()},
                            _LEM_1_1, pendant_extension(g))


def _transposable_bound(g: Graph) -> int:
    """Lem1.4's floor((t-1)/2), t the largest pairwise-transposable vertex
    set, found by checking vertex subsets from the largest down; the
    Lem1.4 graphs have at most 8 vertices."""
    pairs = transposable_pairs(g)
    t = next((size for size in range(g.n, 1, -1)
              if any(pairs.issuperset(combinations(subset, 2))
                     for subset in combinations(range(g.n), size))), 1)
    return (t - 1) // 2


def _lem_1_4(budget) -> Iterator[ClaimReport]:
    """floor((t-1)/2) lower bound from a pairwise-transposable t-set."""
    def judge(bound: int, res: AiResult):
        ok = bound <= res.value
        return ({"bound": bound, "ai": res.value}, ok,
                {} if ok else {"witness": _ai_evidence(res),
                               "note": "bound exceeds the exact index"})

    instances = [("K_1,5", star(6), None), ("K_6", Graph.complete(6), None),
                 ("C_8", cycle(8), "Lem1.4-overreach")]
    for label, g, key in instances:
        yield _search_row(
            "Lem1.4", {"graph": label},
            "ai(G) >= floor((t-1)/2) for a pairwise-transposable t-set",
            g, budget, partial(judge, _transposable_bound(g)), key)


def _lem_2_1(budget, values=range(6, 61)) -> Iterator[ClaimReport]:
    """Closed form for two-part partitions with distinct parts >= 3."""
    for value in values:
        oracle = sum(1 for a in range(3, value)
                     for b in range(a + 1, value) if a + b == value)
        formula = partition_count(value)
        ok = oracle == formula
        yield ClaimReport(
            "Lem2.1", {"i": value}, _LEM_2_1,
            {"formula": formula, "enumeration": oracle},
            CONFIRMED if ok else REFUTED)


def _thm_1_2(budget) -> Iterator[ClaimReport]:
    """0 <= ai(G) <= n(n-1)/2 - (n-2) on a spread of named graphs."""
    instances = [("P_8", path(8)), ("C_9", cycle(9)), ("W_8", wheel(8)),
                 ("K_6", Graph.complete(6)), ("K_1,6", star(7)),
                 ("empty_6", Graph.empty(6))]
    def judge(cap: int, res: AiResult):
        ok = 0 <= res.value <= cap
        return ({"ai": res.value, "upper": cap}, ok,
                {} if ok else {"witness": _ai_evidence(res)})

    for label, g in instances:
        yield _search_row("Thm1.2", {"graph": label},
                          "0 <= ai(G) <= n(n-1)/2 - (n-2)", g, budget,
                          partial(judge, general_upper_bound(g.n)))


def _witness_row(claim_id: str, name: str, args: tuple, expected: str,
                 allowlist_key: str | None = None) -> ClaimReport:
    spec, flips = witness(name, *args)
    return _asym_row(claim_id, {"witness": name, "args": list(args)}, expected,
                     apply_flips(generate(spec), flips), {"size": flips.size},
                     {"flips": flips.as_dict()}, allowlist_key)


def _value_row(claim_id: str, params: dict, g: Graph, expected_value: int,
               expected_text: str, budget: int | None = None,
               boundary_key: str | None = None) -> ClaimReport:
    try:
        return _search_row(claim_id, params, expected_text, g, budget, lambda res: (
            res.value, res.value == expected_value, _ai_evidence(res)))
    except NoAsymmetrizationError:
        return ClaimReport(claim_id, params, expected_text, "no-asymmetrization",
                           REFUTED, {"note": "graphs on 2..5 vertices cannot be "
                                             "made asymmetric"},
                           allowlist_key=boundary_key)


def _removal_free_row(claim_id: str, params: dict, g: Graph,
                      expected_text: str) -> ClaimReport:
    """Searching every set of edge removals must find no asymmetrization."""
    try:
        asymmetric_index(g, mode="remove-only", max_k=g.edge_count)
        status, computed = REFUTED, "found pure-removal asymmetrization"
    except BudgetExceededError as exc:
        status = CONFIRMED if exc.universe_exhausted else BUDGET_EXCEEDED
        computed = "impossible (universe exhausted)" if exc.universe_exhausted \
            else f"> {exc.lower_bound - 1}"
    return ClaimReport(claim_id, params, expected_text, computed, status)


def _sec_2_2_cycle_aut(budget, orders=range(6, 11)) -> Iterator[ClaimReport]:
    for order in orders:
        rep = automorphism_group(cycle(order))
        claimed = factorial(order)
        ok = rep.order == claimed
        yield ClaimReport(
            "Sec2.2-cycle-aut", {"n": order},
            "Aut(C_n) is the full symmetric group S_n",
            {"computed_order": rep.order, "claimed_order": claimed},
            CONFIRMED if ok else REFUTED,
            {"note": "computed group is dihedral of order 2n"},
            allowlist_key=None if ok else "Sec2.2-cycle-aut")


def _chord_count_rows(claim_id: str, variant: str, key: str, budget,
                      orders=range(6, 13)) -> Iterator[ClaimReport]:
    for order in orders:
        oracle = count_nonisomorphic_asymmetrizations(cycle(order), 0, 2)
        value = cycle_augmentation_formula(order, variant)
        ok = oracle == value
        yield ClaimReport(
            claim_id, {"n": order},
            f"{variant} chord-count formula matches enumeration",
            {"formula": value, "enumeration": oracle},
            CONFIRMED if ok else REFUTED,
            {} if ok else {"note": "formula disagrees with brute-force count"},
            allowlist_key=None if ok else key)


def _thm_2_4(budget, orders=(4,)) -> Iterator[ClaimReport]:
    for n in orders:
        for sign in ("+", "-"):
            m = n * n + 1 if sign == "+" else n * n - 1
            spec = FamilySpec("circulant", (m, (1, n)))
            yield _value_row("Thm2.4", {"n": n, "sign": sign}, generate(spec), 2,
                             _THM_2_4, budget)
            for name in ("circulant-remove2", "circulant-add2", "circulant-mixed"):
                yield _witness_row("Thm2.4-witness", name, (n, sign),
                                   f"{name} asymmetrizes the circulant")


def _thm_2_5(budget, orders=range(6, 10)) -> Iterator[ClaimReport]:
    for order in orders:
        yield _bounds_row("Thm2.5", {"n": order}, _THM_2_5, star(order),
                          (order - 1) // 2, order - 1, budget)


def _thm_2_6(budget) -> Iterator[ClaimReport]:
    for order in (6, 7):
        yield _value_row("Thm2.6-exact", {"n": order},
                         Graph.complete(order), 6, "ai(K_n) = 6", budget)
    formulas = kn_bound_formulas(8)
    consistent = formulas["lower_printed"] <= formulas["upper"]
    yield ClaimReport(
        "Thm2.6-printed-lower", {"n": 8},
        "printed lower bound n - floor((n-1)/7) + 4 <= upper bound n - 2",
        formulas, CONFIRMED if consistent else REFUTED,
        {"note": "printed lower bound exceeds the upper bound"},
        allowlist_key=None if consistent else "Thm2.6-printed-lower")
    yield _bounds_row("Thm2.6-asymptotic", {"n": 8},
                      "6*floor(n/7) <= ai(K_n) <= n - 2", Graph.complete(8),
                      formulas["lower_asymptotic"], formulas["upper"], budget)
    for order in (8, 9, 10):
        removed = asymmetric_forest_edges(order)
        yield _asym_row(
            "Thm2.6-upper", {"n": order},
            "removing an asymmetric forest leaves K_n asymmetric (ai <= n-2)",
            apply_flips(Graph.complete(order), FlipSet(removed=frozenset(removed))),
            {"edits": len(removed)})
    trees = asymmetric_trees(9)
    edges = []
    base = 1
    for t in trees:
        edges += [(base + u, base + v) for (u, v) in t.edges()]
        base += 9
    yield _asym_row(
        "Sec2.5-k28", {"n": 28},
        "K_28 minus three distinct asymmetric 9-trees is asymmetric (ai <= 25)",
        apply_flips(Graph.complete(28), FlipSet(removed=frozenset(edges))),
        {"edits": len(edges)})


def _torus_scan(r: int, s: int) -> ClaimReport:
    """Thm2.10 row for C_r x C_s from two proofs.

    The 1-flip scan covers every pair but tests one per orbit of Aut(g)
    on pairs: flips in one orbit give isomorphic graphs, so a hit counts
    its whole orbit.  No hit proves ai > 1, and the shared-vertex
    cross-direction 2-removal witness proves ai <= 2, so the row reads 2;
    a failed witness leaves only ">= 2" (budget-exceeded in range).
    """
    g = torus(r, s)
    one_hits = 0
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    for orbit in _pair_orbits(pairs, automorphism_group(g).generators):
        u, v = min(orbit)
        edited = g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
        if is_asymmetric(edited):
            one_hits += len(orbit)
    fs = FlipSet(removed=frozenset([(0, 1), (0, s)]))
    ok = is_asymmetric(apply_flips(g, fs))
    evidence: dict = {"one_flip_candidates": len(pairs), "one_flip_hits": one_hits,
                      "cross_direction_two_removal": fs.as_dict(), "asymmetric": ok}
    computed = 1 if one_hits else 2 if ok else ">= 2"
    key = None
    if r < 10 or s < 10:
        status = NOT_APPLICABLE
        evidence["note"] = "exploratory: below the claimed range r, s >= 10"
    elif computed == ">= 2":
        status = BUDGET_EXCEEDED
    else:
        status, key = REFUTED, "Thm2.10-nonsquare"
        evidence["note"] = "explicit witness beats the claimed value 3"
    return ClaimReport("Thm2.10", {"r": r, "s": s}, "ai(C_r x C_s) = 3",
                       computed, status, evidence, allowlist_key=key,
                       ai=computed if isinstance(computed, int) else None,
                       vertices=g.n)


def _thm_3_1(budget) -> Iterator[ClaimReport]:
    instances = [("P6+C6", [path(6), cycle(6)]), ("P6+P7", [path(6), path(7)])]
    def judge(comps: list[Graph], res: AiResult):
        parts = [asymmetric_index(c, max_k=budget).value for c in comps]
        return ({"component_ai": parts, "ai": res.value},
                min(parts) <= res.value <= sum(parts), _ai_evidence(res, cap=1))

    for label, comps in instances:
        g = comps[0]
        for c in comps[1:]:
            g = disjoint_union(g, c)
        yield _search_row("Thm3.1", {"components": label},
                          "min_i ai(G_i) <= ai(G) <= sum_i ai(G_i)", g, budget,
                          partial(judge, comps))
    yield ClaimReport(
        "Thm3.1", {"components": "P6+P6"},
        "min_i ai(G_i) <= ai(G) <= sum_i ai(G_i)", None, NOT_APPLICABLE,
        {"note": "isomorphic components; the one-line proof does not cover them"})


def _ex_3_1(budget, values=(3, 4)) -> Iterator[ClaimReport]:
    for value in values:
        g = cycle_with_pendant_paths(value)
        yield _asym_row("Ex3.1", {"l": value}, _EX_3_1, g,
                        {"vertices": g.n, "edges": g.edge_count})


def _thm_3_2(budget) -> Iterator[ClaimReport]:
    for (s, t) in ((8, 1), (8, 2), (9, 3)):
        spec, flips = witness("split-construction", s, t)
        edited = apply_flips(generate(spec), flips)
        ok = is_asymmetric(edited) and flips.size == s - 2 + t - 1
        yield ClaimReport(
            "Thm3.2", {"s": s, "t": t},
            "ai(K_s + t*K_1) <= s - 2 + t - 1",
            {"edits": flips.size, "asymmetric": is_asymmetric(edited)},
            CONFIRMED if ok else REFUTED,
            {"flips": flips.as_dict(),
             **({} if ok else _aut_evidence(edited))})


# -- family claims as data ------------------------------------------------


@dataclass(frozen=True)
class _Check:
    """One row per instance x (a tuple) of a family claim: the catalog
    ``witness(*x)`` asymmetrizes its graph, or else ai(``spec(*x)``) is
    ``value``, or with no value, no edge removals asymmetrize it.
    ``keys`` maps an instance to the allowlist key of its refutation (for
    a value row: of a graph that cannot be asymmetrized at all).
    """

    row_id: str
    text: str
    instances: tuple
    spec: Callable[..., FamilySpec] | None = None
    value: int | None = None
    witness: str | None = None
    params: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)


def _family_rows(checks: tuple[_Check, ...], coords: tuple[str, ...],
                 budget, values=None) -> Iterator[ClaimReport]:
    """Rows of every check, on its default instances or on ``values``."""
    for check in checks:
        for x in check.instances if values is None else [(v,) for v in values]:
            key = check.keys.get(x)
            if check.witness:
                yield _witness_row(check.row_id, check.witness, x, check.text, key)
                continue
            params = {**dict(zip(coords, x)), **check.params}
            g = generate(check.spec(*x))
            if check.value is None:
                yield _removal_free_row(check.row_id, params, g, check.text)
            else:
                yield _value_row(check.row_id, params, g, check.value,
                                 check.text, budget, key)


def _ns(lo: int, hi: int) -> tuple:
    return tuple((n,) for n in range(lo, hi + 1))


def _kind(kind: str) -> Callable[..., FamilySpec]:
    return lambda *args: FamilySpec(kind, args)


_GRIDS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))


# -- catalog ----------------------------------------------------------------


@dataclass(frozen=True)
class _Entry:
    """One catalog entry: ``rows(budget)`` yields the default instances'
    rows.  With a range ``param`` it also takes ``rows(budget, values)``;
    values below ``minimum`` give not-applicable rows expecting ``text``.
    ``parts`` are the row ids it produces, when more than its own.
    """

    rows: Callable[..., Iterable[ClaimReport]]
    param: str | None = None
    minimum: int | None = None
    text: str = ""
    parts: tuple[str, ...] = ()


def _family(param, minimum, coords, *checks: _Check) -> _Entry:
    """Entry of a family claim; ``coords`` name an instance's parts."""
    return _Entry(partial(_family_rows, checks, coords), param, minimum,
                  checks[0].text, tuple(c.row_id for c in checks))


_CATALOG: dict[str, _Entry] = {
    "Prop1.1": _Entry(_prop_1_1, "n"),
    "Prop1.2": _Entry(_prop_1_2, "n", 6, _PROP_1_2),
    "Prop1.3": _Entry(partial(
        _pair_preservation, "Prop1.3", join,
        "join of non-isomorphic asymmetric graphs is asymmetric"), "n"),
    "Prop1.4": _Entry(partial(
        _pair_preservation, "Prop1.4", disjoint_union,
        "union of non-isomorphic asymmetric graphs is asymmetric"), "n"),
    "Lem1.1": _Entry(_lem_1_1, "n", 6, _LEM_1_1),
    "Lem1.4": _Entry(_lem_1_4),
    "Lem2.1": _Entry(_lem_2_1, "i", 6, _LEM_2_1),
    "Thm1.2": _Entry(_thm_1_2),
    "Thm2.1": _family(
        "n", 6, ("n",),
        _Check("Thm2.1", "ai(P_n) = 1", _ns(6, 12), _kind("path"), 1),
        _Check("Thm2.1-witness", "adding the chord (1,3) asymmetrizes P_n",
               _ns(6, 12), witness="path-add-chord")),
    "Thm2.2": _family(
        "n", 6, ("n",),
        _Check("Thm2.2", "ai(C_n) = 2", _ns(6, 12), _kind("cycle"), 2),
        _Check("Thm2.2-witness", "remove one cycle edge, add the path chord",
               _ns(6, 12), witness="cycle-remove-add"),
        _Check("Thm2.2-remove-only", "no pure edge removal asymmetrizes a cycle",
               _ns(6, 12), _kind("cycle"))),
    "Sec2.2-cycle-aut": _Entry(_sec_2_2_cycle_aut, "n"),
    "Rem2.1": _Entry(partial(_chord_count_rows, "Rem2.1", "remark",
                             "Rem2.1-remark-variant"), "n", 6,
                     "remark chord-count formula matches enumeration"),
    "Sec2.2-count": _Entry(partial(_chord_count_rows, "Sec2.2-count", "text",
                                   "Sec2.2-count-text"), "n", 6,
                           "text chord-count formula matches enumeration"),
    "Thm2.3": _family(
        "n", 6, ("n",),
        _Check("Thm2.3", "ai(W_n) = 2", _ns(6, 10), _kind("wheel"), 2,
               params={"convention": "hub degree n-1"}),
        _Check("Thm2.3-witness", "removing a rim edge then an adjacent spoke",
               _ns(6, 10), witness="wheel-two-removals"),
        _Check("Thm2.3-alt", "ai = 2 under the (n+1)-vertex reading", _ns(6, 9),
               lambda n: FamilySpec("wheel", (n + 1,)), 2,
               params={"convention": "hub degree n"})),
    "Thm2.4": _Entry(_thm_2_4, "n", 4, _THM_2_4, ("Thm2.4", "Thm2.4-witness")),
    "Thm2.5": _Entry(_thm_2_5, "n", 6, _THM_2_5),
    "Thm2.6": _Entry(_thm_2_6, parts=("Thm2.6-exact", "Thm2.6-printed-lower",
                                      "Thm2.6-asymptotic", "Thm2.6-upper",
                                      "Sec2.5-k28")),
    "Thm2.8": _family(
        None, None, ("r", "s"),
        _Check("Thm2.8", "ai(P_r x P_s) = 1", _GRIDS, _kind("grid"), 1,
               keys={(2, 2): "Thm2.8-boundary"}),
        _Check("Thm2.8-witness",
               "removing the corner edge (0,0)-(1,0) asymmetrizes the grid",
               _GRIDS[1:], witness="grid-corner",
               keys={(2, 3): "Thm2.8-corner-witness-r2",
                     (2, 4): "Thm2.8-corner-witness-r2"})),
    "Thm2.9": _family(
        None, None, ("r", "s"),
        _Check("Thm2.9", "ai(P_r x C_s) = 2", ((2, 3), (2, 4)), _kind("pxc"), 2),
        _Check("Thm2.9-witness",
               "removing two edges at the corner vertex asymmetrizes P_r x C_s",
               ((2, 3), (2, 4), (3, 5)), witness="pxc-two-removals",
               keys={(2, 4): "Thm2.9-witness-cube"})),
    "Thm2.10": _Entry(lambda budget: (_torus_scan(6, 7), _torus_scan(10, 11))),
    "Thm3.1": _Entry(_thm_3_1),
    "Ex3.1": _Entry(_ex_3_1, "l", 3, _EX_3_1),
    "Thm3.2": _Entry(_thm_3_2),
}

_ALIASES = {"Thm2.7": "Thm1.2"}

CLAIM_IDS = tuple(_CATALOG)

#: Row ids produced by each catalog entry (for id resolution).
ROW_IDS = {cid: entry.parts or (cid,) for cid, entry in _CATALOG.items()}


def _resolve(claim_id: str) -> tuple[str, str | None]:
    """Return (entry id, row filter id or None)."""
    if claim_id in _ALIASES:
        return _ALIASES[claim_id], None
    if claim_id in _CATALOG:
        return claim_id, None
    for entry_id, parts in ROW_IDS.items():
        if claim_id in parts:
            return entry_id, claim_id
    raise ValueError(f"unknown claim {claim_id!r}")


def _entry_rows(entry_id: str, budget: int | None, params: dict) -> list[ClaimReport]:
    """Rows of one entry; out-of-domain values give not-applicable rows."""
    entry = _CATALOG[entry_id]
    unknown = ", ".join(map(repr, sorted(set(params) - {entry.param})))
    if unknown:
        takes = f"only {entry.param!r}" if entry.param else "no parameters"
        raise ValueError(f"{entry_id} takes {takes}; got {unknown}")
    if entry.param not in params:
        return list(entry.rows(budget))
    values = _norm_range(params[entry.param])
    low = [v for v in values if entry.minimum is not None and v < entry.minimum]
    na = [ClaimReport(entry_id, {entry.param: v}, entry.text, None, NOT_APPLICABLE,
                      {"note": f"instance below the claim's domain "
                               f"(needs at least {entry.minimum})"})
          for v in low]
    return na + list(entry.rows(budget, [v for v in values if v not in low]))


def verify(claim_id: str, budget: int | None = None, **params) -> list[ClaimReport]:
    """Evaluate one catalog claim; one report per instance.

    ``claim_id`` may be a catalog entry (``Thm2.2``) or a granular row id
    (``Thm2.6-printed-lower``); an entry's range parameter (``n``, ``i``
    or ``l``) narrows its instances, and any other parameter raises
    ValueError.  A parameter set to None is left out.
    """
    entry_id, row_filter = _resolve(claim_id)
    params = {k: v for k, v in params.items() if v is not None}
    rows = _entry_rows(entry_id, budget, params)
    if row_filter is not None:
        rows = [r for r in rows if r.claim_id == row_filter]
    return _sorted_rows(rows)


def _param_key(value) -> tuple:
    if isinstance(value, bool):
        return (2, str(value))
    if isinstance(value, int):
        return (0, value)
    return (1, str(value))


def _sorted_rows(rows: list[ClaimReport]) -> list[ClaimReport]:
    def key(r: ClaimReport):
        return (r.claim_id,
                tuple((k, _param_key(v)) for k, v in sorted(r.params.items())))
    return sorted(rows, key=key)


def verify_suite(budget: int | None = None) -> list[ClaimReport]:
    """Run the whole catalog at default desk-scale ranges.

    Appends one sweep row checking the universal upper bound against
    every index value computed by the suite itself.
    """
    rows: list[ClaimReport] = []
    for entry in _CATALOG.values():
        rows.extend(entry.rows(budget))
    computed = [r for r in rows if r.ai is not None]
    violations = [r.claim_id for r in computed
                  if not 0 <= r.ai <= general_upper_bound(r.vertices)]
    rows.append(ClaimReport(
        "Thm1.2-sweep", {"values_checked": len(computed)},
        "every index computed by the suite obeys the universal bounds",
        {"violations": violations}, CONFIRMED if not violations else REFUTED))
    return _sorted_rows(rows)
