"""Exhaustive small-graph catalogs: isomorphism-class representatives,
trees, and their asymmetric members.

Representatives are produced by vertex augmentation with canonical-form
deduplication, so the lists are deterministic and sorted by canonical
bytes.  Intended for desk scale (graphs to ~8 vertices, trees to ~12).
"""

from __future__ import annotations

from functools import cache

from .graph import Graph, _iter_bits
from .automorphism import canonical_form, is_asymmetric


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


def _extensions(bases: list[Graph], masks) -> list[Graph]:
    """Each base plus a new last vertex joined to the vertices of each
    mask: the first graph found per canonical form, sorted by its bytes."""
    by_key: dict[bytes, Graph] = {}
    for base in bases:
        n = base.n
        for mask in masks:
            rows = list(base.rows) + [mask]
            for u in _iter_bits(mask):
                rows[u] |= 1 << n
            g = Graph(n + 1, rows, _trusted=True)
            by_key.setdefault(canonical_form(g), g)
    return [g for _, g in sorted(by_key.items())]


@cache
def nonisomorphic_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex graphs.

    Built by augmenting the (n-1)-vertex representatives with one new
    vertex attached in every possible way and deduplicating by canonical
    form.  Complete because deleting the last vertex of any n-vertex
    graph leaves a representative's class.
    """
    if n <= 1:
        return [Graph.empty(n)]          # ValueError for n < 0
    return _extensions(nonisomorphic_graphs(n - 1), range(1 << (n - 1)))


def asymmetric_graphs(n: int) -> list[Graph]:
    """Representatives of the asymmetric isomorphism classes on n vertices."""
    return [g for g in nonisomorphic_graphs(n) if is_asymmetric(g)]


@cache
def nonisomorphic_trees(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex trees.

    Grown by attaching a leaf (vertex n-1) to each vertex of each smaller
    tree; every tree arises this way by deleting a leaf.
    """
    if n < 1:
        raise ValueError("trees need at least one vertex")
    if n == 1:
        return [Graph.empty(1)]
    return _extensions(nonisomorphic_trees(n - 1),
                       [1 << anchor for anchor in range(n - 1)])


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
