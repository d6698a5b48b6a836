"""Exact asymmetric-index computation by iterative-deepening edge-flip
search with automorphism-orbit pruning.

The togglable universe is the set of all vertex pairs: a pair currently
present is a removal candidate, an absent one an addition candidate, and
the mode masks the universe down to removals or additions only.  Layer k
enumerates one representative per orbit of k-subsets under Aut(G) by
extending the layer-(k-1) representatives by one pair and keeping each
extension's min-image over the group's elements (built coset by coset;
a subgroup when the full group is too large to enumerate, and coarser
orbits only cost time).  The image of a representative is computed once
per group element and reused for all of its extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graph import Graph, _iter_bits
from .automorphism import (automorphism_group, canonical_form, group_elements,
                           is_asymmetric, subgroup_elements,
                           transposable_clique_lower_bound, MAX_CLOSURE)

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
    """Search exhausted its layer budget; carries the proven lower bound."""

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


@dataclass(frozen=True)
class FlipSet:
    """A set of removed existing edges plus added non-edges."""

    removed: frozenset[tuple[int, int]] = frozenset()
    added: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        self._set(frozenset(_norm_pair(*e) for e in self.removed),
                  frozenset(_norm_pair(*e) for e in self.added))

    def _set(self, removed: frozenset, added: frozenset) -> "FlipSet":
        # Stores pairs already in (u, v), u < v form; the one overlap check.
        if removed & added:
            raise ValueError("removed and added sets overlap")
        object.__setattr__(self, "removed", removed)
        object.__setattr__(self, "added", added)
        return self

    @property
    def size(self) -> int:
        return len(self.removed) + len(self.added)

    def inverse(self) -> "FlipSet":
        return FlipSet(removed=self.added, added=self.removed)

    def sort_key(self):
        return (tuple(sorted(self.removed)), tuple(sorted(self.added)))

    def as_dict(self) -> dict:
        return {"removed": [list(e) for e in sorted(self.removed)],
                "added": [list(e) for e in sorted(self.added)]}

    def __repr__(self) -> str:
        rem = ",".join(f"{u}-{v}" for u, v in sorted(self.removed)) or "-"
        add = ",".join(f"{u}-{v}" for u, v in sorted(self.added)) or "-"
        return f"FlipSet(removed=[{rem}] added=[{add}])"


@dataclass
class SearchStats:
    nodes: int = 0        # candidate extensions (counted, not built)
    tested: int = 0       # asymmetry oracle calls
    dedup_hits: int = 0   # candidates skipped as orbit duplicates

    def as_dict(self) -> dict:
        return {"nodes": self.nodes, "tested": self.tested,
                "dedup_hits": self.dedup_hits}


@dataclass
class AiResult:
    """Computed index with witnesses and search statistics."""

    value: int
    witnesses: list[FlipSet] = field(default_factory=list)
    mode: str = "mixed"
    stats: SearchStats = field(default_factory=SearchStats)


def apply_flips(g: Graph, flips: FlipSet) -> Graph:
    """Delete ``flips.removed`` and insert ``flips.added``."""
    rows = list(g.rows)
    n = g.n
    for u, v in flips.removed:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"flip pair ({u},{v}) out of range")
        if not (rows[u] >> v) & 1:
            raise ValueError(f"cannot remove absent edge ({u},{v})")
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    for u, v in flips.added:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"flip pair ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"cannot add self-loop at {u}")
        if (rows[u] >> v) & 1:
            raise ValueError(f"cannot add existing edge ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, _trusted=True)


# -- orbit machinery ----------------------------------------------------


class _FlipOrbits:
    """Canonicalizes pair-index subsets under a permutation group.

    ``table[i, w]`` encodes the image of pair i under group element w.
    With at most 62 pairs it is the bit ``1 << image``, so a subset's
    image is the OR of its rows; otherwise it is the image's pair index.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        report = automorphism_group(g)
        elems = group_elements(report.generators, n, MAX_CLOSURE)
        if elems is None:
            elems = subgroup_elements(report.generators, n, MAX_CLOSURE)
        perms = np.array(elems, dtype=np.int32).T                # (n, W)
        del elems                       # free the tuples before the table
        npairs = len(self.pairs)
        self.bitmask = npairs <= 62
        codes = (np.left_shift(np.ones(npairs, dtype=np.int64),
                               np.arange(npairs, dtype=np.int64))
                 if self.bitmask else np.arange(npairs, dtype=np.int32))
        pair_id = np.zeros((n, n), dtype=np.int32)
        for i, (u, v) in enumerate(self.pairs):
            pair_id[u, v] = pair_id[v, u] = i
        self.table = np.empty((npairs, perms.shape[1]), dtype=codes.dtype)
        for i, (u, v) in enumerate(self.pairs):
            self.table[i] = codes[pair_id[perms[u], perms[v]]]

    def extend(self, reps: list[tuple[int, ...]],
               universe: list[int]) -> set[tuple[int, ...]]:
        """Min-image forms of every ``base`` in ``reps`` (all of one size)
        plus one universe pair not in it.

        In the bitmask encoding each base's rows are OR-ed once, so an
        extension costs one OR and one minimum over the group axis.  A
        pair already in the base gives a key one bit short, which is
        dropped.  The index encoding canonicalizes explicit candidates.
        """
        if not self.bitmask:
            return self.canonical_many([tuple(sorted(base + (e,)))
                                        for base in reps for e in universe
                                        if e not in base])
        if not reps or not universe:
            return set()
        k = len(reps[0]) + 1
        nelems = self.table.shape[1]
        # chunk sizes keep each (r, u, W) int64 temporary near 8 MB
        per_u = max(1, 1_000_000 // nelems)
        per_r = max(1, 1_000_000 // (min(per_u, len(universe)) * nelems))
        bases = np.array(reps, dtype=np.intp).reshape(len(reps), k - 1)
        keys: set[int] = set()
        for u0 in range(0, len(universe), per_u):
            ext = self.table[universe[u0:u0 + per_u]]                  # (u, W)
            for r0 in range(0, len(reps), per_r):
                packed = np.bitwise_or.reduce(self.table[bases[r0:r0 + per_r]],
                                              axis=1)                  # (r, W)
                keys.update((ext | packed[:, None]).min(axis=2).ravel().tolist())
        return {tuple(_iter_bits(key)) for key in keys if key.bit_count() == k}

    def canonical(self, subset: tuple[int, ...]) -> tuple[int, ...]:
        """Lexicographically least sorted image (index encoding)."""
        images = np.sort(self.table[list(subset)], axis=0)         # (k, W)
        best = np.lexsort(images[::-1])[0]
        return tuple(int(x) for x in images[:, best])

    def canonical_many(self, cands: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
        """Min-image forms of equal-size subsets in the index encoding,
        chunked for memory.

        Each sorted image is packed into bit fields of one integer, so the
        canonical choice is a plain numeric minimum over the group axis;
        when the fields need more than 62 bits each subset goes through
        ``canonical``.
        """
        if not cands:
            return set()
        k = len(cands[0])
        npairs, nelems = self.table.shape
        width = max(1, (npairs - 1).bit_length())
        if k * width > 62:
            return {self.canonical(c) for c in cands}
        arr = np.array(sorted(set(cands)), dtype=np.intp)         # (C, k)
        chunk = max(1, 8_000_000 // (nelems * k))
        shifts = np.arange(k - 1, -1, -1, dtype=np.int64) * width
        mask = (1 << width) - 1
        out: set[tuple[int, ...]] = set()
        for start in range(0, len(arr), chunk):
            imgs = np.sort(self.table[arr[start:start + chunk]], axis=1)  # (c, k, W)
            packed = imgs[:, 0].astype(np.int64)
            for i in range(1, k):
                packed = (packed << width) | imgs[:, i]
            for key in packed.min(axis=1):
                key = int(key)
                out.add(tuple(int((key >> int(sh)) & mask) for sh in shifts))
        return out


def _universe(g: Graph, mode: str) -> list[int]:
    """Indices, in lexicographic pair order, of the pairs ``mode`` may flip."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    pairs = ((u, v) for u in range(g.n) for v in range(u + 1, g.n))
    return [i for i, (u, v) in enumerate(pairs)
            if mode == "mixed" or g.has_edge(u, v) == (mode == "remove-only")]


def _flipset_from_indices(g: Graph, subset, pairs) -> FlipSet:
    removed, added = [], []
    for i in subset:
        u, v = pairs[i]
        (removed if (g.rows[u] >> v) & 1 else added).append((u, v))
    # the pairs come normalized from _FlipOrbits.pairs, so skip __post_init__
    return object.__new__(FlipSet)._set(frozenset(removed), frozenset(added))


def flip_orbit_layers(g: Graph, max_k: int, mode: str = "mixed",
                      stats: SearchStats | None = None):
    """Yield (k, flip_sets) for k = 1..max_k.

    One FlipSet per orbit of k-subsets of the mode's universe under
    Aut(g), ordered by the orbit's canonical min-image subset, so
    iteration order is deterministic.  Candidates generated and orbit
    duplicates skipped are added to ``stats`` when given.
    """
    stats = SearchStats() if stats is None else stats
    orbits = _FlipOrbits(g)
    universe = _universe(g, mode)
    reps: list[tuple[int, ...]] = [()]
    for k in range(1, max_k + 1):
        seen = orbits.extend(reps, universe)
        # every base is a (k-1)-subset of the universe
        nodes = len(reps) * (len(universe) - (k - 1))
        stats.nodes += nodes
        stats.dedup_hits += nodes - len(seen)
        reps = sorted(seen)
        yield k, [_flipset_from_indices(g, r, orbits.pairs) for r in reps]


def asymmetric_index(g: Graph, mode: str = "mixed", max_k: int | None = None,
                     witness_cap: int = DEFAULT_WITNESS_CAP) -> AiResult:
    """Minimum number of edge flips making ``g`` asymmetric.

    Iterative deepening over flip-set size; within a layer only one
    representative per Aut(g)-orbit is tested (equivalent flip sets give
    isomorphic results).  Raises NoAsymmetrizationError for 2 <= n <= 5
    and BudgetExceededError (with the proven lower bound) when the layer
    budget runs out.  Raises ValueError for an unknown mode, a negative
    ``max_k`` or a ``witness_cap`` below 1.
    """
    n = g.n
    universe = len(_universe(g, mode))
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
    hits: list[FlipSet] = []
    last_k = 0
    for last_k, flip_sets in flip_orbit_layers(g, min(max_k, universe), mode,
                                               stats):
        for fs in flip_sets:
            stats.tested += 1
            if is_asymmetric(apply_flips(g, fs)):
                hits.append(fs)
                if len(hits) >= witness_cap:
                    break
        if hits:
            break
    if not hits:
        raise BudgetExceededError(min(max_k, universe) + 1, stats,
                                  universe_exhausted=last_k >= universe)
    witnesses = sorted(hits, key=FlipSet.sort_key)[:witness_cap]
    return AiResult(witnesses[0].size, witnesses, mode, stats)


def lower_bound(g: Graph) -> int:
    """Transposable-clique bound floor((t-1)/2); informational."""
    return transposable_clique_lower_bound(g)


def count_nonisomorphic_asymmetrizations(g: Graph, r: int, s: int) -> int:
    """Isomorphism classes of asymmetric graphs reachable by removing
    exactly r edges and adding exactly s, deduplicated by canonical form
    of the result (not by flip-set orbit)."""
    edges = list(g.edges())
    non_edges = list(g.non_edges())
    if r > len(edges):
        raise ValueError(f"cannot remove {r} of {len(edges)} edges")
    if s > len(non_edges):
        raise ValueError(f"cannot add {s} of {len(non_edges)} non-edges")
    seen: set[bytes] = set()
    for rem in combinations(edges, r):
        for add in combinations(non_edges, s):
            h = apply_flips(g, FlipSet(removed=frozenset(rem), added=frozenset(add)))
            if is_asymmetric(h):
                seen.add(canonical_form(h))
    return len(seen)
