"""Exhaustive small-graph catalogs: isomorphism-class representatives,
trees, and their asymmetric members.

Representatives are produced by vertex augmentation with canonical-form
deduplication, so the lists are deterministic and sorted by canonical
bytes.  Intended for desk scale (graphs to ~8 vertices, trees to ~12).
"""

from __future__ import annotations

from .graph import Graph
from .automorphism import canonical_form, is_asymmetric

_GRAPH_CACHE: dict[int, list[Graph]] = {}
_TREE_CACHE: dict[int, list[Graph]] = {}


def all_pairs(n: int) -> list[tuple[int, int]]:
    """All vertex pairs u < v in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n: int, mask: int, pairs: list[tuple[int, int]] | None = None) -> Graph:
    """Graph whose edge set is the bit-selected subset of ``pairs``."""
    if pairs is None:
        pairs = all_pairs(n)
    rows = [0] * n
    for i, (u, v) in enumerate(pairs):
        if (mask >> i) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows, _trusted=True)


def nonisomorphic_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex graphs.

    Built by augmenting the (n-1)-vertex representatives with one new
    vertex attached in every possible way and deduplicating by canonical
    form.  Complete because deleting the last vertex of any n-vertex
    graph leaves a representative's class.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n in _GRAPH_CACHE:
        return _GRAPH_CACHE[n]
    if n == 0:
        reps = [Graph.empty(0)]
    elif n == 1:
        reps = [Graph.empty(1)]
    else:
        by_key: dict[bytes, Graph] = {}
        for base in nonisomorphic_graphs(n - 1):
            for mask in range(1 << (n - 1)):
                rows = list(base.rows) + [mask]
                for u in range(n - 1):
                    if (mask >> u) & 1:
                        rows[u] |= 1 << (n - 1)
                g = Graph(n, rows, _trusted=True)
                key = canonical_form(g)
                if key not in by_key:
                    by_key[key] = g
        reps = [g for _, g in sorted(by_key.items())]
    _GRAPH_CACHE[n] = reps
    return reps


def asymmetric_graphs(n: int) -> list[Graph]:
    """Representatives of the asymmetric isomorphism classes on n vertices."""
    return [g for g in nonisomorphic_graphs(n) if is_asymmetric(g)]


def nonisomorphic_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex trees.

    Grown by attaching a leaf (vertex n-1) to each vertex of each smaller
    tree; every tree arises this way by deleting a leaf.
    """
    if n < 1:
        raise ValueError("trees need at least one vertex")
    if n in _TREE_CACHE:
        return _TREE_CACHE[n]
    if n == 1:
        reps = [Graph.empty(1)]
    else:
        by_key: dict[bytes, Graph] = {}
        for base in nonisomorphic_trees(n - 1):
            for anchor in range(n - 1):
                rows = list(base.rows) + [1 << anchor]
                rows[anchor] |= 1 << (n - 1)
                t = Graph(n, rows, _trusted=True)
                key = canonical_form(t)
                if key not in by_key:
                    by_key[key] = t
        reps = [t for _, t in sorted(by_key.items())]
    _TREE_CACHE[n] = reps
    return reps


def asymmetric_trees(n: int) -> list[Graph]:
    """Asymmetric tree representatives on n vertices (first exists at n=7)."""
    return [t for t in nonisomorphic_trees(n) if is_asymmetric(t)]


def asymmetric_forest_edges(n: int) -> list[tuple[int, int]]:
    """Edges of an asymmetric tree on vertices 0..n-2, leaving n-1 isolated.

    The resulting forest (tree plus one isolated vertex) is asymmetric as
    a graph on n vertices; requires n - 1 >= 7.
    """
    if n - 1 < 7:
        raise ValueError("no asymmetric tree on fewer than 7 vertices")
    tree = asymmetric_trees(n - 1)[0]
    return list(tree.edges())
