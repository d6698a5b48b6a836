"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's refinement machinery:
isomorphism classes come from marking permutation orbits over all labeled
graphs, automorphisms are counted by looping over every permutation (on
large graphs, by networkx's VF2), and groups are closed by breadth-first
search over products of generators.  That keeps the expected values
independent of the code paths they check.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest

from asymindex.graph import Graph
from asymindex.enumeration import all_pairs, graph_from_mask
from asymindex.search import FlipSet, apply_flips, flip_orbit_layers


def perm_edge_action(n: int) -> np.ndarray:
    """(n!, P) table: row g maps pair index i to the index of its image."""
    pairs = all_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    rows = []
    for perm in itertools.permutations(range(n)):
        rows.append([index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs])
    return np.array(rows, dtype=np.int64)


def labeled_orbit_classes(n: int):
    """Representative masks and orbit sizes via exhaustive orbit marking.

    Scans every labeled graph on n vertices in mask order; each unseen
    mask starts a new class and its whole permutation orbit is marked.
    The orbit size also gives |Aut| = n! / orbit.
    """
    table = perm_edge_action(n)
    npairs = table.shape[1]
    pow2 = np.left_shift(np.ones(npairs, dtype=np.int64),
                         np.arange(npairs, dtype=np.int64))
    seen = np.zeros(1 << npairs, dtype=bool)
    reps = []
    for mask in range(1 << npairs):
        if seen[mask]:
            continue
        bits = np.array([(mask >> i) & 1 for i in range(npairs)], dtype=np.int64)
        images = (bits[table] * pow2).sum(axis=1)
        orbit = np.unique(images)
        seen[orbit] = True
        reps.append((mask, len(orbit)))
    return reps


def brute_automorphism_count(g: Graph) -> int:
    count = 0
    n = g.n
    rows = g.rows
    for perm in itertools.permutations(range(n)):
        ok = True
        for u in range(n):
            pu = perm[u]
            row = rows[u]
            while row:
                b = row & -row
                v = b.bit_length() - 1
                row ^= b
                if not (rows[pu] >> perm[v]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def brute_is_asymmetric(g: Graph) -> bool:
    return brute_automorphism_count(g) == 1


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def vf2_self_maps(g: Graph, cap: int | None = None) -> int:
    """Automorphisms of ``g`` found by networkx's VF2, at most ``cap``."""
    h = to_nx(g)
    matcher = nx.algorithms.isomorphism.GraphMatcher(h, h)
    return sum(1 for _ in itertools.islice(matcher.isomorphisms_iter(), cap))


def witnesses_asymmetrize(g: Graph, witnesses: list[dict]) -> bool:
    """By VF2: ``g`` has a non-trivial automorphism, and ``g`` edited by
    each witness (a ``FlipSet.as_dict``, of which there is at least one)
    has only the identity."""
    return vf2_self_maps(g, 2) == 2 and bool(witnesses) and all(
        vf2_self_maps(apply_flips(g, FlipSet(**w))) == 1 for w in witnesses)


def bfs_closure(generators, n: int) -> list:
    """Every product of generators, by breadth-first search from the
    identity: each element is composed with every generator."""
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for s in generators:
                c = tuple(s[x] for x in a)
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(elems)


def rebuilt_child(g: Graph, child) -> Graph:
    """The graph of a layer child (S, rows), rebuilt from S's distinct
    pairs with ``apply_flips``, which checks each pair's state in g.  The
    rows the search yielded must equal it, so the graph a test reads
    does not rest on the search's own flips."""
    s, rows = child
    flips = [all_pairs(g.n)[i] for i in s]
    assert len(set(flips)) == len(flips)
    h = apply_flips(g, FlipSet(removed={p for p in flips if g.has_edge(*p)},
                               added={p for p in flips if not g.has_edge(*p)}))
    assert h.rows == tuple(rows)
    return h


def whole_layers(g: Graph, max_k: int, mode: str = "mixed", stats=None) -> list:
    """``flip_orbit_layers`` run to its end, its parts grouped by k:
    [(k, children of layer k)] for k = 1..max_k, children in the order
    the parts gave them."""
    layers: dict = {}
    for k, part in flip_orbit_layers(g, max_k, mode, stats):
        layers.setdefault(k, []).extend(part)
    return list(layers.items())


@pytest.fixture(scope="session")
def orbit_classes6():
    """All 156 class representatives on 6 vertices with orbit sizes,
    derived purely from the S_6 action on labeled graphs."""
    return labeled_orbit_classes(6)


@pytest.fixture(scope="session")
def classes6(orbit_classes6):
    pairs = all_pairs(6)
    return [graph_from_mask(6, mask, pairs) for mask, _ in orbit_classes6]
