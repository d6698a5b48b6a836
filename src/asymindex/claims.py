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

from collections import namedtuple
from functools import cache, partial
from itertools import combinations, permutations
from math import factorial
from operator import itemgetter
from typing import Callable, Iterator

from .graph import Graph, disjoint_union, join, to_graph6
from .automorphism import (automorphism_group, canonical_form, cycles_str,
                           find_nontrivial_automorphism, is_asymmetric,
                           is_automorphism, transposable_pairs)
from .enumeration import (asymmetric_forest_edges, asymmetric_graphs,
                          asymmetric_trees, nonisomorphic_graphs)
from .families import (circulant, cycle, cycle_with_pendant_paths, generate,
                       grid, path, path_cycle, pendant_extension, split, star,
                       torus, wheel, witness)
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


class ClaimReport:
    """Outcome of one claim instance.

    ``ai`` and ``vertices`` are the exact index a row computed and the
    vertex count of its graph; the Thm1.2 sweep reads them, and
    ``to_dict`` leaves them out.
    """

    __slots__ = ("claim_id", "params", "expected", "computed", "status", "evidence",
                 "allowlist_key", "ai", "vertices")

    def __init__(self, claim_id: str, params: dict, expected: str, computed: object,
                 status: str, evidence: dict | None = None, allowlist_key: str | None = None,
                 ai: int | None = None, vertices: int | None = None):
        self.claim_id = claim_id
        self.params = params
        self.expected = expected
        self.computed = computed
        self.status = status
        self.evidence = {} if evidence is None else evidence
        self.allowlist_key = allowlist_key
        self.ai = ai
        self.vertices = vertices

    def __eq__(self, other) -> bool:
        return isinstance(other, ClaimReport) and (self.to_dict(), self.ai, self.vertices) \
            == (other.to_dict(), other.ai, other.vertices)

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


def _asym_row(claim_id: str, params: dict, text: str, g: Graph,
              flips: FlipSet | None = None, size: int | None = None,
              key: str | None = None) -> ClaimReport:
    """Row for "``g``, edited by ``flips`` when given, is asymmetric"; with
    ``size`` the edit set must also have that many pairs.  A symmetric
    graph's row carries one of its automorphisms, and a refutation
    carries ``key``."""
    computed, evidence = {}, {}
    if flips is not None:
        g = apply_flips(g, flips)
        computed, evidence = {"size": flips.size}, {"flips": flips.as_dict()}
    aut = find_nontrivial_automorphism(g)
    asym = aut is None
    if not asym:
        evidence["automorphism"] = cycles_str(aut)
    ok = asym and (size is None or flips.size == size)
    return ClaimReport(claim_id, params, text, {**computed, "asymmetric": asym},
                       CONFIRMED if ok else REFUTED, evidence,
                       allowlist_key=None if ok else key)


def _search_row(claim_id: str, params: dict, text: str, g: Graph,
                budget: int | None, judge: Callable, key: str | None = None,
                search: Callable | None = None) -> ClaimReport:
    """Row for a claim about ai(``g``), the graph the row names.

    ``judge(res)`` maps the search of ``g`` to (computed, holds,
    evidence); a refutation, or a ``g`` that no edits make asymmetric,
    carries ``key``.  A search that stops at the layer budget gives a
    budget-exceeded row.  Only ``g``'s own stop is a proven lower bound
    of ``g``; a stop in one of ``judge``'s further searches bounds
    another graph, so that row carries none.  ``search(g)`` gives ``g``'s
    search when given, else ``asymmetric_index`` at the budget runs it.
    """
    try:
        res = search(g) if search else asymmetric_index(g, max_k=budget)
    except BudgetExceededError as exc:
        return ClaimReport(claim_id, params, text, f"> {exc.lower_bound - 1}",
                           BUDGET_EXCEEDED, {"proven_lower_bound": exc.lower_bound})
    except NoAsymmetrizationError:
        return ClaimReport(claim_id, params, text, "no-asymmetrization", REFUTED,
                           {"note": "graphs on 2..5 vertices cannot be made "
                                    "asymmetric"}, allowlist_key=key)
    try:
        computed, ok, evidence = judge(res)
    except BudgetExceededError:
        return ClaimReport(claim_id, params, text, {"ai": res.value}, BUDGET_EXCEEDED,
                           {"note": "a further search stopped at the layer budget"})
    return ClaimReport(claim_id, params, text, computed, CONFIRMED if ok else REFUTED,
                       evidence, allowlist_key=None if ok else key,
                       ai=res.value, vertices=g.n)


def _bounds_row(claim_id: str, params: dict, text: str, g: Graph,
                bounds: Callable[[], tuple], budget: int | None,
                key: str | None = None) -> ClaimReport:
    """Row for "lower <= ai(``g``) <= upper", with the search's evidence.

    ``bounds()`` gives (lower, upper), with None for an open upper side;
    it runs after ``g``'s own search, so a stop in a search it makes
    carries no bound.
    """
    def judge(res: AiResult):
        lower, upper = bounds()
        ok = lower <= res.value and (upper is None or res.value <= upper)
        return ({"lower": lower, "ai": res.value, "upper": upper}, ok,
                _ai_evidence(res, cap=1))
    return _search_row(claim_id, params, text, g, budget, judge, key)


def _removal_free_row(claim_id: str, params: dict, g: Graph, expected_text: str,
                      budget: int | None) -> ClaimReport:
    """Searching every set of edge removals must find no asymmetrization."""
    try:
        asymmetric_index(g, mode="remove-only",
                         max_k=g.edge_count if budget is None else budget)
        status, computed = REFUTED, "found pure-removal asymmetrization"
    except BudgetExceededError as exc:
        status = CONFIRMED if exc.universe_exhausted else BUDGET_EXCEEDED
        computed = "impossible (universe exhausted)" if exc.universe_exhausted \
            else f"> {exc.lower_bound - 1}"
    return ClaimReport(claim_id, params, expected_text, computed, status)


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


# -- the claim that stays a handler ------------------------------------------
# Prop1.2 searches each class once and reads both of a row's indices off
# those shared searches, its own and its complement's; as a table line it
# would make ``_family_rows`` branch on this one caller.  It yields
# ClaimReport rows; ``budget`` is the search layer budget, and the
# in-domain orders of its range come next.

_PROP_1_2 = "ai(G) = ai(complement(G))"


def _prop_1_2(budget, orders=(6,)) -> Iterator[ClaimReport]:
    """ai(G) = ai(complement(G)); witnesses map by swapping removed/added.

    Each class is searched once, and ai(complement(G)) is read off the
    search of the complement's class, found by canonical form; a stop
    there is raised again, as a further search's stop for G's row.
    """
    graphs = [g for n in orders for g in nonisomorphic_graphs(n)]
    outcomes: dict[bytes, AiResult | Exception] = {}
    for g in graphs:
        try:
            outcomes[canonical_form(g)] = asymmetric_index(g, max_k=budget)
        except (BudgetExceededError, NoAsymmetrizationError) as exc:
            outcomes[canonical_form(g)] = exc

    def search(g: Graph) -> AiResult:
        out = outcomes[canonical_form(g)]
        if isinstance(out, Exception):
            raise out
        return out

    def judge(g: Graph, res: AiResult):
        gc = g.complement()
        resc = search(gc)
        mapped_ok = all(is_asymmetric(apply_flips(gc, w.inverse()))
                        for w in res.witnesses)
        ok = res.value == resc.value and mapped_ok
        return ({"ai": res.value, "complement_ai": resc.value,
                 "witness_map_ok": mapped_ok},
                ok, {} if ok else {"witness": _ai_evidence(res)})

    for g in graphs:
        yield _search_row("Prop1.2", {"graph6": to_graph6(g).decode()}, _PROP_1_2,
                          g, budget, partial(judge, g), search=search)


# -- claims as data -------------------------------------------------------


class _Check(namedtuple("_Check", (
        "row_id", "text", "instances", "graph", "value", "bounds", "witness", "claimed",
        "oracle", "edits", "size", "removal_free", "values", "note", "params", "keys",
        "outside"),
        defaults=(None,) * 8 + (False, (), "", {}, {}, {}))):
    """One row per instance x of a claim, in one of six shapes: the
    catalog ``witness(*x)`` asymmetrizes its graph; ``claimed(*x)`` equals
    ``oracle(*x)``; ai(``graph(*x)``) is ``value``; ``bounds(*x)`` =
    (lower, upper) holds around it; with ``removal_free``, no edge
    removals asymmetrize the graph; or else the graph, edited by
    ``edits(*x)`` when given (of ``size(*x)`` pairs when given), is
    asymmetric.

    ``instances`` holds tuples of coordinates or bare first coordinates,
    or is a callable mapping a range value to instance tuples, run on
    ``values`` by default; a Graph coordinate is written as graph6 in the
    row's params.  ``keys`` maps an instance tuple to the allowlist key
    of its refutation (for a search row, also of a graph that cannot be
    asymmetrized at all), or is one key for every instance; an equality
    row's refutation also carries ``note``.  ``outside`` maps an instance
    tuple the claim does not cover to a note: its row is built as usual,
    keeps its computed side and evidence, and reads not-applicable with
    no allowlist key and the note in its evidence.  The empty ``params``,
    ``keys`` and ``outside`` defaults are shared and only read.
    """

    __slots__ = ()


def _family_rows(checks: tuple[_Check, ...], coords: tuple[str, ...],
                 budget, values=None) -> Iterator[ClaimReport]:
    """Rows of every check, on its default instances or, with ``values``,
    on each value: a callable's instances of it, or else the value
    crossed with the default instances' other coordinates."""
    for check in checks:
        if callable(check.instances):
            xs = [x for v in (check.values if values is None else values)
                  for x in check.instances(v)]
        else:
            xs = [x if isinstance(x, tuple) else (x,) for x in check.instances]
            if values is not None:
                xs = [(v, *rest) for v in values
                      for rest in dict.fromkeys(x[1:] for x in xs)]
        for x in xs:
            row = _check_row(check, coords, x, budget)
            if x in check.outside:
                row.status, row.allowlist_key = NOT_APPLICABLE, None
                row.evidence["note"] = check.outside[x]
            yield row


def _check_row(check: _Check, coords: tuple[str, ...], x: tuple,
               budget) -> ClaimReport:
    """The row of ``check`` on instance ``x``, in the check's shape."""
    key = check.keys if isinstance(check.keys, str) else check.keys.get(x)
    if check.witness:
        spec, flips = witness(check.witness, *x)
        return _asym_row(check.row_id, {"witness": check.witness, "args": list(x)},
                         check.text, generate(spec), flips, key=key)
    params = {**{c: to_graph6(v).decode() if isinstance(v, Graph) else v
                 for c, v in zip(coords, x)}, **check.params}
    if check.oracle:
        claimed, computed = check.claimed(*x), check.oracle(*x)
        ok = claimed == computed
        return ClaimReport(check.row_id, params, check.text,
                           {"claimed": claimed, "computed": computed},
                           CONFIRMED if ok else REFUTED,
                           {"note": check.note} if check.note and not ok else {},
                           allowlist_key=None if ok else key)
    g = check.graph(*x)
    if check.bounds:
        return _bounds_row(check.row_id, params, check.text, g,
                           partial(check.bounds, *x), budget, key)
    if check.value is not None:
        return _search_row(check.row_id, params, check.text, g, budget,
                           lambda res: (res.value, res.value == check.value,
                                        _ai_evidence(res)), key)
    if check.removal_free:
        return _removal_free_row(check.row_id, params, g, check.text, budget)
    return _asym_row(check.row_id, params, check.text, g,
                     check.edits and check.edits(*x), check.size and check.size(*x), key)


def _transposable_bound(g: Graph) -> int:
    """Lem1.4's floor((t-1)/2), t the largest pairwise-transposable vertex
    set, found by checking vertex subsets from the largest down; the
    Lem1.4 graphs have at most 8 vertices."""
    pairs = transposable_pairs(g)
    t = next((size for size in range(g.n, 1, -1)
              if any(pairs.issuperset(combinations(subset, 2))
                     for subset in combinations(range(g.n), size))), 1)
    return (t - 1) // 2


def _complement_aut_order(g: Graph) -> int | None:
    """|Aut(complement(g))| if each group's generators are automorphisms
    of the other graph and the orbits agree, else None; equal to
    |Aut(g)|, it proves Aut(g) = Aut(complement(g))."""
    gc = g.complement()
    rep, repc = automorphism_group(g), automorphism_group(gc)
    cross = all(is_automorphism(gc, p) for p in rep.generators) and \
        all(is_automorphism(g, p) for p in repc.generators)
    return repc.order if cross and rep.orbits == repc.orbits else None


@cache
def _cycle_chord_count(n: int) -> int:
    """Classes of asymmetric C_n plus two chords, by enumeration; the
    Rem2.1 and Sec2.2-count rows share each count."""
    return count_nonisomorphic_asymmetrizations(cycle(n), 0, 2)


def _chord_count(claim_id: str, variant: str, key: str) -> _Check:
    return _Check(
        claim_id, f"{variant} chord-count formula matches enumeration", range(6, 13),
        claimed=partial(cycle_augmentation_formula, variant=variant),
        oracle=_cycle_chord_count, note="formula disagrees with brute-force count",
        keys=key)


#: The fixed named instances of the bounds claims, by label.
_NAMED = {"P_8": path(8), "C_8": cycle(8), "C_9": cycle(9), "W_8": wheel(8),
          "K_6": Graph.complete(6), "K_1,5": star(6), "K_1,6": star(7),
          "empty_6": Graph.empty(6)}
_GRIDS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))
_CIRCULANTS = ((4, "+"), (4, "-"))
#: Thm3.1's component lists, by label.
_COMPONENTS = {"P6+C6": (path(6), cycle(6)), "P6+P7": (path(6), path(7)),
               "P6+P6": (path(6), path(6))}


def _component_bounds(label: str) -> tuple[int, int]:
    """(min, sum) of the components' indices.  Their searches take no
    layer budget: each component here has an index at most its union's,
    so they return whenever the union's own search did."""
    ai = [asymmetric_index(c).value for c in _COMPONENTS[label]]
    return min(ai), sum(ai)


# -- catalog ----------------------------------------------------------------


class _Entry(namedtuple("_Entry", ("rows", "param", "minimum", "texts"))):
    """One catalog entry: ``rows(budget)`` yields the default instances'
    rows.  With a range ``param`` it also takes ``rows(budget, values)``;
    values below ``minimum`` give not-applicable rows.  ``texts`` maps
    each row id it produces to its statement.
    """

    __slots__ = ()


def _family(param, minimum, coords, *checks: _Check) -> _Entry:
    """Entry of a claim made of checks; ``coords`` name an instance's parts."""
    return _Entry(partial(_family_rows, checks, coords), param, minimum,
                  {c.row_id: c.text for c in checks})


_CATALOG: dict[str, _Entry] = {
    "Prop1.1": _family(
        "n", None, ("graph6",),
        _Check("Prop1.1", "Aut(G) = Aut(complement(G))",
               lambda n: ((g,) for g in nonisomorphic_graphs(n)), values=(6,),
               claimed=lambda g: automorphism_group(g).order,
               oracle=_complement_aut_order)),
    "Prop1.2": _Entry(_prop_1_2, "n", 6, {"Prop1.2": _PROP_1_2}),
    "Prop1.3": _family("n", 6, ("g", "h"), _Check(
        "Prop1.3", "join of non-isomorphic asymmetric graphs is asymmetric",
        lambda n: permutations(asymmetric_graphs(n), 2), join, values=(6,))),
    "Prop1.4": _family("n", 6, ("g", "h"), _Check(
        "Prop1.4", "union of non-isomorphic asymmetric graphs is asymmetric",
        lambda n: permutations(asymmetric_graphs(n), 2), disjoint_union, values=(6,))),
    "Lem1.1": _family(
        "n", 6, ("n", "graph6"),
        _Check("Lem1.1", "pendant extension of an asymmetric graph is asymmetric",
               lambda n: ((n, g) for g in asymmetric_graphs(n)),
               lambda n, g: pendant_extension(g), values=(6, 7))),
    "Lem1.4": _family(
        None, None, ("graph",),
        _Check("Lem1.4", "ai(G) >= floor((t-1)/2) for a pairwise-transposable t-set",
               ("K_1,5", "K_6", "C_8"), _NAMED.__getitem__,
               bounds=lambda label: (_transposable_bound(_NAMED[label]), None),
               keys={("C_8",): "Lem1.4-overreach"})),
    "Lem2.1": _family(
        "i", 6, ("i",),
        _Check("Lem2.1", "floor((i-5)/2) distinct partitions", range(6, 61),
               claimed=partition_count,
               oracle=lambda i: sum(1 for a in range(3, i)
                                    for b in range(a + 1, i) if a + b == i))),
    "Thm1.2": _family(
        None, None, ("graph",),
        _Check("Thm1.2", "0 <= ai(G) <= n(n-1)/2 - (n-2)",
               ("P_8", "C_9", "W_8", "K_6", "K_1,6", "empty_6"), _NAMED.__getitem__,
               bounds=lambda label: (0, general_upper_bound(_NAMED[label].n)))),
    "Thm2.1": _family(
        "n", 6, ("n",),
        _Check("Thm2.1", "ai(P_n) = 1", range(6, 13), path, 1),
        _Check("Thm2.1-witness", "adding the chord (1,3) asymmetrizes P_n",
               range(6, 13), witness="path-add-chord")),
    "Thm2.2": _family(
        "n", 6, ("n",),
        _Check("Thm2.2", "ai(C_n) = 2", range(6, 13), cycle, 2),
        _Check("Thm2.2-witness", "remove one cycle edge, add the path chord",
               range(6, 13), witness="cycle-remove-add"),
        _Check("Thm2.2-remove-only", "no pure edge removal asymmetrizes a cycle",
               range(6, 13), cycle, removal_free=True)),
    "Sec2.2-cycle-aut": _family(
        "n", 3, ("n",),
        _Check("Sec2.2-cycle-aut", "Aut(C_n) is the full symmetric group S_n",
               range(6, 11), claimed=factorial,
               oracle=lambda n: automorphism_group(cycle(n)).order,
               note="computed group is dihedral of order 2n", keys="Sec2.2-cycle-aut")),
    "Rem2.1": _family("n", 6, ("n",),
                      _chord_count("Rem2.1", "remark", "Rem2.1-remark-variant")),
    "Sec2.2-count": _family("n", 6, ("n",),
                            _chord_count("Sec2.2-count", "text", "Sec2.2-count-text")),
    "Thm2.3": _family(
        "n", 6, ("n",),
        _Check("Thm2.3", "ai(W_n) = 2", range(6, 11), wheel, 2,
               params={"convention": "hub degree n-1"}),
        _Check("Thm2.3-witness", "removing a rim edge then an adjacent spoke",
               range(6, 11), witness="wheel-two-removals"),
        _Check("Thm2.3-alt", "ai = 2 under the (n+1)-vertex reading", range(6, 10),
               lambda n: wheel(n + 1), 2, params={"convention": "hub degree n"})),
    "Thm2.4": _family(
        "n", 4, ("n", "sign"),
        _Check("Thm2.4", "ai(C_{n^2 +/- 1}(1, n)) = 2", _CIRCULANTS,
               lambda n, sign: circulant(n * n + (1 if sign == "+" else -1), (1, n)),
               2),
        *(_Check("Thm2.4-witness", f"{name} asymmetrizes the circulant",
                 _CIRCULANTS, witness=name)
          for name in ("circulant-remove2", "circulant-add2", "circulant-mixed"))),
    "Thm2.5": _family(
        "n", 6, ("n",),
        _Check("Thm2.5", "floor((n-1)/2) <= ai(K_{1,n-1}) <= n-1", range(6, 10),
               star, bounds=lambda n: ((n - 1) // 2, n - 1))),
    "Thm2.6": _family(
        None, None, ("n",),
        _Check("Thm2.6-exact", "ai(K_n) = 6", (6, 7), Graph.complete, 6),
        # lower <= upper exactly when min(lower, upper) is the lower bound
        _Check("Thm2.6-printed-lower",
               "printed lower bound n - floor((n-1)/7) + 4 <= upper bound n - 2", (8,),
               claimed=lambda n: kn_bound_formulas(n)["lower_printed"],
               oracle=lambda n: min(itemgetter("lower_printed", "upper")(kn_bound_formulas(n))),
               note="printed lower bound exceeds the upper bound",
               keys="Thm2.6-printed-lower"),
        _Check("Thm2.6-asymptotic", "6*floor(n/7) <= ai(K_n) <= n - 2", (8,), Graph.complete,
               bounds=lambda n: itemgetter("lower_asymptotic", "upper")(kn_bound_formulas(n))),
        _Check("Thm2.6-upper",
               "removing an asymmetric forest leaves K_n asymmetric (ai <= n-2)",
               (8, 9, 10), Graph.complete,
               edits=lambda n: FlipSet(removed=frozenset(asymmetric_forest_edges(n)))),
        _Check("Sec2.5-k28",  # the trees side by side on vertices 1..27
               "K_28 minus three distinct asymmetric 9-trees is asymmetric (ai <= 25)",
               (28,), Graph.complete, edits=lambda n: FlipSet(removed=frozenset(
                   (1 + 9 * i + u, 1 + 9 * i + v)
                   for i, t in enumerate(asymmetric_trees(9)) for u, v in t.edges())))),
    "Thm2.8": _family(
        None, None, ("r", "s"),
        _Check("Thm2.8", "ai(P_r x P_s) = 1", _GRIDS, grid, 1,
               keys={(2, 2): "Thm2.8-boundary"}),
        _Check("Thm2.8-witness",
               "removing the corner edge (0,0)-(1,0) asymmetrizes the grid",
               _GRIDS[1:], witness="grid-corner",
               keys={(2, 3): "Thm2.8-corner-witness-r2",
                     (2, 4): "Thm2.8-corner-witness-r2"})),
    "Thm2.9": _family(
        None, None, ("r", "s"),
        _Check("Thm2.9", "ai(P_r x C_s) = 2", ((2, 3), (2, 4)), path_cycle, 2),
        _Check("Thm2.9-witness",
               "removing two edges at the corner vertex asymmetrizes P_r x C_s",
               ((2, 3), (2, 4), (3, 5)), witness="pxc-two-removals",
               keys={(2, 4): "Thm2.9-witness-cube"})),
    "Thm2.10": _family(None, None, ("r", "s"), _Check(
        "Thm2.10", "ai(C_r x C_s) = 3", ((6, 7), (10, 11)), torus, 3,
        keys="Thm2.10-nonsquare",
        outside={(6, 7): "exploratory: below the claimed range r, s >= 10"})),
    "Thm3.1": _family(None, None, ("components",), _Check(
        "Thm3.1", "min_i ai(G_i) <= ai(G) <= sum_i ai(G_i)", tuple(_COMPONENTS),
        lambda label: disjoint_union(*_COMPONENTS[label]), bounds=_component_bounds,
        outside={("P6+P6",): "isomorphic components; the one-line proof does not "
                             "cover them"})),
    "Ex3.1": _family(
        "l", 3, ("l",),
        _Check("Ex3.1", "joining each pendant path to its own cycle vertex gives an "
               "asymmetric graph (ai <= l)", (3, 4), cycle_with_pendant_paths)),
    "Thm3.2": _family(
        None, None, ("s", "t"),
        _Check("Thm3.2", "ai(K_s + t*K_1) <= s - 2 + t - 1", ((8, 1), (8, 2), (9, 3)),
               split, edits=lambda s, t: witness("split-construction", s, t)[1],
               size=lambda s, t: s - 2 + t - 1)),
}

_ALIASES = {"Thm2.7": "Thm1.2"}

CLAIM_IDS = tuple(_CATALOG)

#: Row ids produced by each catalog entry (for id resolution).
ROW_IDS = {cid: tuple(entry.texts) for cid, entry in _CATALOG.items()}


def _resolve(claim_id: str) -> tuple[str, str | None]:
    """Return (entry id, row filter id or None)."""
    if claim_id in _ALIASES or claim_id in _CATALOG:
        return _ALIASES.get(claim_id, claim_id), None
    for entry_id, parts in ROW_IDS.items():
        if claim_id in parts:
            return entry_id, claim_id
    raise ValueError(f"unknown claim {claim_id!r}")


def verify(claim_id: str, budget: int | None = None, **params) -> list[ClaimReport]:
    """Evaluate one catalog claim; one report per instance.

    ``claim_id`` may be a catalog entry (``Thm2.2``) or a granular row id
    (``Thm2.6-printed-lower``); an entry's range parameter (``n``, ``i``
    or ``l``) narrows its instances, and any other parameter raises
    ValueError.  A parameter set to None is left out.  Values below the
    claim's domain give not-applicable rows, under the id asked for.
    """
    entry_id, row_filter = _resolve(claim_id)
    entry = _CATALOG[entry_id]
    params = {k: v for k, v in params.items() if v is not None}
    unknown = ", ".join(map(repr, sorted(set(params) - {entry.param})))
    if unknown:
        takes = f"only {entry.param!r}" if entry.param else "no parameters"
        raise ValueError(f"{entry_id} takes {takes}; got {unknown}")
    if entry.param not in params:
        rows = list(entry.rows(budget))
    else:
        values = _norm_range(params[entry.param])
        low = [v for v in values if entry.minimum is not None and v < entry.minimum]
        row_id = row_filter or entry_id
        note = f"instance below the claim's domain (needs at least {entry.minimum})"
        rows = [ClaimReport(row_id, {entry.param: v}, entry.texts[row_id], None,
                            NOT_APPLICABLE, {"note": note}) for v in low]
        rows += entry.rows(budget, [v for v in values if v not in low])
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
