"""Exact asymmetric-index computation by a breadth-first search over
isomorphism classes of edited graphs, with automorphism-orbit pruning.

The togglable universe is the set of all vertex pairs: a pair currently
present is a removal candidate, an absent one an addition candidate, and
the mode masks the universe down to removals or additions only.  The
search starts at G, and each step flips one pair of the mode.  Layer k
holds children (S, rows, symmetric): S is k pair indices in G's labels,
rows are the rows of G xor S, and those graphs cover every isomorphism
class at distance exactly k from G at least once.  A class P kept from
layer k - 1 is expanded by the least pair e of each orbit of Aut(P) on
its pairs of the mode; flipping two pairs of one orbit gives isomorphic
graphs.  One canonical search of each child, run on its twin quotient
(``automorphism._class_search``), gives a key, which decides whether its
class is new, its group's generators, which prune its own expansion,
and the group's order.  A child P xor e is flagged symmetric when e's
orbit is smaller than Aut(P): it keeps the |Aut(P)| / |orbit|
automorphisms of P that fix e.  The pairs, their index table and the
mode's universe are set up once per walk (``_walk``).  Each layer is
yielded in parts, one per class expanded, so a consumer sees children
as soon as their parent is searched.  The index search tests the
children not flagged as they arrive, stops at its last witness or at
the opening of the layer after its first hit, and builds a FlipSet only
for each distinct witness; the count of asymmetric graphs reachable by
exactly r removals or exactly s additions reads the parts of layer r + s.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Frozen, Graph, Record
from .enumeration import all_pairs
from .automorphism import (_class_search, _orbit_partition, _pair_index,
                           _pair_maps, _search, _has_twins, canonical_form,
                           is_asymmetric)

MODES = ("mixed", "add-only", "remove-only")
DEFAULT_WITNESS_CAP = 4


class NoAsymmetrizationError(Exception):
    """No edit sequence can work: every graph on 2..5 vertices keeps a
    nontrivial automorphism."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(
            f"graphs on {n} vertices cannot be made asymmetric "
            "(possible only for n = 1 or n >= 6)")


class BudgetExceededError(Exception):
    """No asymmetric graph within the layer budget; carries the proven
    lower bound, and whether the universe was searched or proven empty."""

    def __init__(self, lower_bound: int, stats: "SearchStats",
                 universe_exhausted: bool = False):
        self.lower_bound = lower_bound
        self.stats = stats
        self.universe_exhausted = universe_exhausted
        extra = " (entire universe searched)" if universe_exhausted else ""
        super().__init__(f"no asymmetrization within budget; value > "
                         f"{lower_bound - 1}{extra}")


def _norm_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class FlipSet(Frozen):
    """A set of removed existing edges plus added non-edges."""

    __slots__ = ("removed", "added")

    def __init__(self, removed: Iterable[tuple[int, int]] = frozenset(),
                 added: Iterable[tuple[int, int]] = frozenset()):
        removed = frozenset(_norm_pair(*e) for e in removed)
        added = frozenset(_norm_pair(*e) for e in added)
        if removed & added:
            raise ValueError("removed and added sets overlap")
        self._set(removed, added)

    @property
    def size(self) -> int:
        return len(self.removed) + len(self.added)

    def inverse(self) -> "FlipSet":
        return FlipSet(removed=self.added, added=self.removed)

    def sort_key(self):
        return (tuple(sorted(self.removed)), tuple(sorted(self.added)))

    def as_dict(self, base: int = 0) -> dict:
        """Sorted pairs as lists, each label shifted by ``base``."""
        return {"removed": [[u + base, v + base] for u, v in sorted(self.removed)],
                "added": [[u + base, v + base] for u, v in sorted(self.added)]}

    def __repr__(self) -> str:
        rem = ",".join(f"{u}-{v}" for u, v in sorted(self.removed)) or "-"
        add = ",".join(f"{u}-{v}" for u, v in sorted(self.added)) or "-"
        return f"FlipSet(removed=[{rem}] added=[{add}])"


class SearchStats(Record):
    __slots__ = ("nodes", "tested", "dedup_hits")

    def __init__(self, nodes: int = 0, tested: int = 0, dedup_hits: int = 0):
        # Each counts up to where the search stopped: its last witness, the
        # opening of the layer after its first hit, its budget, or at the
        # root, when ``_degree_rule`` proves no asymmetric graph reachable.
        self.nodes = nodes              # candidate pairs: the mode's pairs outside S,
                                        # summed over the classes g xor S expanded
        self.tested = tested            # is_asymmetric calls: g, then one per child
                                        # not flagged symmetric by its parent's group
        self.dedup_hits = dedup_hits    # children that land on a class already seen

    def as_dict(self) -> dict:
        return {"nodes": self.nodes, "tested": self.tested,
                "dedup_hits": self.dedup_hits}


class AiResult(Record):
    """Computed index with witnesses and search statistics."""

    __slots__ = ("value", "witnesses", "mode", "stats")

    def __init__(self, value: int, witnesses: list[FlipSet] | None = None,
                 mode: str = "mixed", stats: SearchStats | None = None):
        self.value = value
        self.witnesses = [] if witnesses is None else witnesses
        self.mode = mode
        self.stats = SearchStats() if stats is None else stats


def apply_flips(g: Graph, flips: FlipSet) -> Graph:
    """Delete ``flips.removed``, then insert ``flips.added``, by
    ``Graph.remove_edge`` and ``Graph.add_edge``, whose checks raise
    ValueError on a pair out of range, a loop or a wrong edge state."""
    for u, v in flips.removed:
        g = g.remove_edge(u, v)
    for u, v in flips.added:
        g = g.add_edge(u, v)
    return g


# -- class search -------------------------------------------------------


def _universe_size(g: Graph, mode: str) -> int:
    """Count of pairs ``mode`` may flip in ``g``; ValueError if unknown."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    total = g.n * (g.n - 1) // 2
    return {"mixed": total, "remove-only": g.edge_count,
            "add-only": total - g.edge_count}[mode]


def _degree_rule(g: Graph, mode: str) -> bool:
    """True when a one-direction ``mode`` reaches no asymmetric graph from
    ``g`` (n >= 2): the rows it can only shrink, g's or its complement's,
    have maximum degree at most 2, which removals keep, so every component
    is a path or a cycle, each with a reversal or a rotation."""
    if mode == "mixed" or g.n < 2:
        return False
    return (g.complement() if mode == "add-only" else g).degree_sequence()[0] <= 2


def _walk(n: int, mode: str):
    """What every class of a walk on n vertices shares: the pairs and
    their index table (``_pair_index``), and the universe, a function from
    rows to the indices of the pairs a known ``mode`` may flip there."""
    pairs, index = _pair_index(n)
    if mode == "mixed":
        return pairs, index, lambda rows: range(len(pairs))
    present = mode == "remove-only"
    return pairs, index, lambda rows: [i for i, (u, v) in enumerate(pairs)
                                       if (rows[u] >> v) & 1 == present]


def flip_orbit_layers(g: Graph, max_k: int, mode: str = "mixed",
                      stats: SearchStats | None = None):
    """Yield layers k = 1..max_k of a breadth-first search over
    isomorphism classes, rooted at ``g``, whose steps flip one pair of
    the mode, each in parts (k, children): first an empty part when
    layer k opens, then one part per class of layer k - 1 (layer 0 is
    ``g``) as soon as its search finds it new.

    Each child of layer k is (S, rows, symmetric): S is a tuple of k
    indices into ``all_pairs(g.n)``, in the order they were flipped, rows
    are the adjacency rows of g xor S, and ``symmetric`` is True when its
    parent's group proves it symmetric.  Layer k's graphs cover every
    class at distance exactly k from ``g`` at least once; any other class
    among them lies at distance k - 2.  Each child of layer k - 1 gets one
    canonical search on its twin quotient, which gives a key and its
    group's generators and order.  A class h = g xor S whose key is new
    gives one child S + (e,) per orbit of Aut(h) on h's pairs of the mode,
    flagged when the orbit is smaller than Aut(h), e the orbit's least
    pair index, in parent order and then by e.  An orbit that meets S is
    skipped: flipping one of its pairs gives a class at distance k - 2 or
    less.  Layer max_k is only yielded, not kept.  A
    consumer may stop between parts; ``stats``, when given, then counts
    the candidate pairs of the classes expanded and the children of a
    class already seen up to that point.
    """
    stats = SearchStats() if stats is None else stats
    n = g.n
    size = _universe_size(g, mode)
    pairs, index, universe = _walk(n, mode)
    seen: set = set()

    def expand(s: tuple[int, ...], rows) -> list | None:
        """The children of the class of g xor S (``rows``), or None if
        that class was seen before."""
        key, gens, order = _class_search(rows, n)
        if key in seen:
            return None
        seen.add(key)
        taken = set(s)
        children = []
        for orbit in _orbit_partition(universe(rows),
                                      _pair_maps(gens, pairs, index)):
            if taken.isdisjoint(orbit):
                u, v = pairs[orbit[0]]
                child = list(rows)
                child[u] ^= 1 << v
                child[v] ^= 1 << u
                children.append((s + (orbit[0],), tuple(child), len(orbit) < order))
        return children

    # Stopgap for the root only, until a work budget (the second half of
    # ROADMAP item 4): an input with twins is also searched whole, as
    # ``aut`` searches it, so one too deep for the tree search stops here
    # with a RecursionError (exit 4 in the CLI).  A twin class gives
    # ``_pair_maps`` at most two generators, but many isomorphic components
    # give many lifted quotient generators: 550 copies of P_3 ran 275 s and
    # 3 GB without this guard.
    if _has_twins(g.rows, n):
        _search(g.rows, n, [(1 << n) - 1])
    parents = [((), g.rows, False)]
    for k in range(1, max_k + 1):
        yield k, []
        following = []
        for s, rows, _ in parents:
            children = expand(s, rows)
            if children is None:
                stats.dedup_hits += 1
                continue
            stats.nodes += size - (k - 1)
            if k < max_k:
                following += children
            yield k, children
        parents = following


def asymmetric_index(g: Graph, mode: str = "mixed", max_k: int | None = None,
                     witness_cap: int = DEFAULT_WITNESS_CAP) -> AiResult:
    """Minimum number of edge flips making ``g`` asymmetric.

    Breadth-first over isomorphism classes: layer k of
    ``flip_orbit_layers`` reaches every class at distance k from ``g``,
    and isomorphic graphs are asymmetric together, so the first layer
    with an asymmetric graph gives the exact value.  Children are tested
    by ``is_asymmetric`` as their parts arrive, except those their
    parent's group flags symmetric; ``stats.tested`` counts the tests
    made.  The first ``witness_cap`` distinct flip sets among that
    layer's asymmetric children (two flip orders of one set give the same
    child), in ``g``'s labels and ``FlipSet.sort_key`` order, are the
    witnesses.  The search stops at the last of them, or when the next
    layer opens, so ``stats`` counts only the classes expanded before
    that.  Raises NoAsymmetrizationError for 2 <= n <= 5, BudgetExceededError
    (with the proven lower bound) when the layer budget runs out or, with no
    walk, when ``_degree_rule`` proves that none suffices, and ValueError for
    an unknown mode, a negative ``max_k`` or a ``witness_cap`` below 1.
    """
    n = g.n
    size = _universe_size(g, mode)
    if max_k is not None and max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be >= 1, got {witness_cap}")
    if 2 <= n <= 5:
        raise NoAsymmetrizationError(n)
    stats = SearchStats()
    stats.tested += 1
    if is_asymmetric(g):
        return AiResult(0, [FlipSet()], mode, stats)
    if max_k is None:
        max_k = 8 if n <= 12 else 3
    budget = min(max_k, size)
    hits: set[frozenset[int]] = set()
    last_k = 0
    layers = () if _degree_rule(g, mode) else flip_orbit_layers(g, budget, mode, stats)
    for k, children in layers:
        if hits and k > last_k:
            break
        last_k = k
        for s, rows, symmetric in children:
            if symmetric:
                continue
            stats.tested += 1
            if is_asymmetric(Graph(n, rows, _trusted=True)):
                hits.add(frozenset(s))
                if len(hits) >= witness_cap:
                    break
        if len(hits) >= witness_cap:
            break
    if not hits:
        raise BudgetExceededError(budget + 1, stats, universe_exhausted=budget >= size)
    pairs = all_pairs(n)
    witnesses = sorted((FlipSet(removed={pairs[i] for i in s if g.has_edge(*pairs[i])},
                                added={pairs[i] for i in s if not g.has_edge(*pairs[i])})
                        for s in hits), key=FlipSet.sort_key)
    return AiResult(last_k, witnesses, mode, stats)


def count_nonisomorphic_asymmetrizations(g: Graph, r: int, s: int) -> int:
    """Isomorphism classes of asymmetric graphs reachable by removing
    exactly r edges (s = 0) or adding exactly s non-edges (r = 0).

    Each remove-only or add-only step changes the edge count by one, so
    that mode's layer r + s reaches every such class; it may reach one
    more than once, so the hits are counted by canonical form.  A mixed
    layer groups classes by distance, not by removals and additions, so
    r and s both positive is a ValueError.
    """
    n_edges = g.edge_count
    n_non_edges = g.n * (g.n - 1) // 2 - n_edges
    if r < 0 or s < 0:
        raise ValueError(f"edit counts must be non-negative; got r={r}, s={s}")
    if r and s:
        raise ValueError(f"edits must be all removals or all additions; "
                         f"got r={r}, s={s}")
    if r > n_edges:
        raise ValueError(f"cannot remove {r} of {n_edges} edges")
    if s > n_non_edges:
        raise ValueError(f"cannot add {s} of {n_non_edges} non-edges")
    if r + s == 0:
        return int(is_asymmetric(g))
    mode = "add-only" if r == 0 else "remove-only"
    hits = (Graph(g.n, rows, _trusted=True)
            for k, children in flip_orbit_layers(g, r + s, mode)
            if k == r + s for _, rows, symmetric in children if not symmetric)
    return len({canonical_form(h) for h in hits if is_asymmetric(h)})
