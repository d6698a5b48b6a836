"""Exact asymmetric-index computation by iterative-deepening edge-flip
search with automorphism-orbit pruning.

The togglable universe is the set of all vertex pairs: a pair currently
present is a removal candidate, an absent one an addition candidate, and
the mode masks the universe down to removals or additions only.  Layer k
holds at least one representative per orbit of k-subsets under Aut(G),
its least bitmask image.  Layer 1 is the least pair index of each orbit
of the generators on pair indices; layer k extends each layer-(k-1)
representative by the least pair of each orbit of its stabilizer, over the
group's elements (one array from the base's transversals; above
``MAX_CLOSURE`` elements, a base prefix's stabilizer, whose finer orbits
can split an Aut(G)-orbit into several representatives, which costs time
but not exactness).  The same layers drive the index search and the count
of asymmetric graphs reachable by exactly r removals and s additions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _iter_bits
from .automorphism import (_orbit_partition, _pair_maps, automorphism_group,
                           canonical_form, is_asymmetric, subgroup_elements,
                           MAX_CLOSURE)
from .enumeration import all_pairs

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

    def as_dict(self, base: int = 0) -> dict:
        """Sorted pairs as lists, each label shifted by ``base``."""
        return {"removed": [[u + base, v + base] for u, v in sorted(self.removed)],
                "added": [[u + base, v + base] for u, v in sorted(self.added)]}

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

    The group is the array ``subgroup_elements`` builds from ``report``.
    ``table[i, w]`` is the bit ``1 << j`` of pair i's image j under group
    element w, so a subset's image is the OR of its rows and its min-image
    the least such OR: int64 with at most 62 pairs, Python ints above.
    """

    def __init__(self, report, pairs: list[tuple[int, int]]):
        self.pairs = pairs
        # (n, W): row u holds u's image under every element
        perms = np.ascontiguousarray(subgroup_elements(report, MAX_CLOSURE).T)
        pair_id = np.zeros((len(perms), len(perms)), dtype=np.intp)
        for i, (u, v) in enumerate(pairs):
            pair_id[u, v] = pair_id[v, u] = i
        bits = np.array([1 << i for i in range(len(pairs))],
                        dtype=np.int64 if len(pairs) <= 62 else object)
        bit_of = bits[pair_id]                  # pair {u, v}'s bit at [u, v]
        self.table = np.empty((len(pairs), perms.shape[1]), dtype=bits.dtype)
        for i, (u, v) in enumerate(pairs):
            self.table[i] = bit_of[perms[u], perms[v]]

    def extend(self, reps: list[tuple[int, ...]],
               universe: list[int]) -> set[tuple[int, ...]]:
        """Min-image forms of every ``base`` in ``reps`` (all of one size
        and each a min-image) plus one universe pair not in it.

        The columns where the OR of a base R's rows equals its minimum
        (R's own bitmask) are R's stabilizer.  If e' = s(e) for s in that
        stabilizer, R + e' = s(R + e) has the same min-image, so only the
        least pair of each stabilizer orbit is extended: a slice of such
        pairs at a time, by one OR with R's rows and one minimum over the
        group axis.  A pair already in the base gives a key one bit
        short, which is dropped.
        """
        if not reps:
            return set()
        table = self.table
        nelems = table.shape[1]
        uni = np.array(universe, dtype=np.intp)
        # about 64K words of keys per slice, a key of p pairs taking p / 64
        per_slice = max(1, 65536 // (1 + len(self.pairs) // 64) // nelems)
        buf = np.empty((per_slice, nelems), dtype=table.dtype)
        keys: set[int] = set()
        for base in reps:
            packed = np.zeros(nelems, dtype=table.dtype)
            for i in base:
                packed |= table[i]
            stab = np.flatnonzero(packed == packed.min())
            step = max(1, 1_000_000 // len(stab))     # (u, stab) slice size
            for u0 in range(0, len(uni), step):
                chunk = uni[u0:u0 + step]
                # column 0 is the identity, so equality marks orbit minima
                least = chunk[table[np.ix_(chunk, stab)].min(axis=1)
                              == table[chunk, 0]]
                for l0 in range(0, len(least), per_slice):
                    part = least[l0:l0 + per_slice]
                    # "clip" lets take write straight into the buffer
                    rows = table.take(part, axis=0, out=buf[:len(part)], mode="clip")
                    rows |= packed
                    keys.update(rows.min(axis=1).tolist())
        k = len(reps[0]) + 1
        return {tuple(_iter_bits(key)) for key in keys if key.bit_count() == k}


def _universe(g: Graph, mode: str, pairs: list[tuple[int, int]]) -> list[int]:
    """Indices into ``pairs`` of the pairs ``mode`` may flip."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return [i for i, (u, v) in enumerate(pairs)
            if mode == "mixed" or g.has_edge(u, v) == (mode == "remove-only")]


def _flipset_from_indices(g: Graph, subset, pairs) -> FlipSet:
    removed, added = [], []
    for i in subset:
        u, v = pairs[i]
        (removed if (g.rows[u] >> v) & 1 else added).append((u, v))
    # the pairs come normalized from all_pairs, so skip __post_init__
    return object.__new__(FlipSet)._set(frozenset(removed), frozenset(added))


def flip_orbit_layers(g: Graph, max_k: int, mode: str = "mixed",
                      stats: SearchStats | None = None):
    """Yield (k, flip_sets) for k = 1..max_k.

    At least one FlipSet per orbit of k-subsets of the mode's universe
    under Aut(g), ordered by min-image subset, so iteration order is
    deterministic.  Up to ``MAX_CLOSURE`` group elements there is exactly
    one per orbit; above it, layers k >= 2 dedupe under a base prefix's
    stabilizer, so one orbit may appear several times.  Layer 1 is the
    least pair of each orbit of the generators on the universe; the group
    table is built only for k >= 2.  Candidates generated and orbit
    duplicates skipped are added to ``stats`` when given.
    """
    stats = SearchStats() if stats is None else stats
    pairs = all_pairs(g.n)
    universe = _universe(g, mode, pairs)
    report = automorphism_group(g)
    reps: list[tuple[int, ...]] = [()]
    for k in range(1, max_k + 1):
        if k == 1:
            maps = _pair_maps(report.generators, g.n)
            seen = {orbit[:1] for orbit in _orbit_partition(universe, maps)}
        else:
            orbits = _FlipOrbits(report, pairs) if k == 2 else orbits
            seen = orbits.extend(reps, universe)
        # every base is a (k-1)-subset of the universe
        nodes = len(reps) * (len(universe) - (k - 1))
        stats.nodes += nodes
        stats.dedup_hits += nodes - len(seen)
        reps = sorted(seen)
        yield k, [_flipset_from_indices(g, r, pairs) for r in reps]


def asymmetric_index(g: Graph, mode: str = "mixed", max_k: int | None = None,
                     witness_cap: int = DEFAULT_WITNESS_CAP) -> AiResult:
    """Minimum number of edge flips making ``g`` asymmetric.

    Iterative deepening over flip-set size; within a layer at least one
    representative per Aut(g)-orbit is tested, one each unless the group
    exceeds ``MAX_CLOSURE`` (equivalent flip sets give isomorphic
    results, so the value is exact either way).  Raises
    NoAsymmetrizationError for 2 <= n <= 5 and BudgetExceededError (with
    the proven lower bound) when the layer budget runs out.  Raises
    ValueError for an unknown mode, a negative ``max_k`` or a
    ``witness_cap`` below 1.
    """
    n = g.n
    universe = len(_universe(g, mode, all_pairs(n)))
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


def count_nonisomorphic_asymmetrizations(g: Graph, r: int, s: int) -> int:
    """Isomorphism classes of asymmetric graphs reachable by removing
    exactly r edges and adding exactly s.

    Flip sets in one Aut(g)-orbit give isomorphic graphs, so only the
    layer's representatives of the orbits of (r + s)-subsets are tested (remove-only
    when s = 0, add-only when r = 0, else the mixed layer's sets with r
    removals; an automorphism maps edges to edges, so no orbit mixes
    these).  Distinct orbits may still give isomorphic graphs, so the
    hits are counted by canonical form.
    """
    n_edges = g.edge_count
    n_non_edges = g.n * (g.n - 1) // 2 - n_edges
    if r < 0 or s < 0:
        raise ValueError(f"edit counts must be non-negative; got r={r}, s={s}")
    if r > n_edges:
        raise ValueError(f"cannot remove {r} of {n_edges} edges")
    if s > n_non_edges:
        raise ValueError(f"cannot add {s} of {n_non_edges} non-edges")
    if r + s == 0:
        return int(is_asymmetric(g))
    mode = "remove-only" if s == 0 else "add-only" if r == 0 else "mixed"
    *_, (_, flip_sets) = flip_orbit_layers(g, r + s, mode)
    seen: set[bytes] = set()
    for fs in flip_sets:
        if len(fs.removed) == r:
            h = apply_flips(g, fs)
            if is_asymmetric(h):
                seen.add(canonical_form(h))
    return len(seen)
