"""Automorphism-group machinery: asymmetry decisions, group order and
orbits, canonical forms, and transposable vertex pairs.

Everything is built on one primitive: an individualization-refinement
tree search of one ordered partition (``_search``).  Refinement orders
split cells by neighbor-count signatures, which keeps partition traces
label-invariant, so the least leaf over the tree is a canonical form of
the graph with its ordered partition.  A leaf equal to the best one
gives an automorphism; the automorphisms found prune the tree and
generate the group that fixes the partition's cells.  Refinement is
incremental: a tree node individualizes one vertex of an equitable
partition, and only the remainder of its cell is queued as a splitter,
which yields the same ordered partition as queueing every cell;
refinement also stops once the partition is discrete.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graph import Graph, pack_triangle_bits

Perm = tuple[int, ...]

# Largest automorphism group that is ever enumerated element by element.
MAX_CLOSURE = 1_000_000


# -- permutation helpers ----------------------------------------------


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p: Perm) -> bool:
    return all(i == v for i, v in enumerate(p))


def compose(p: Perm, q: Perm) -> Perm:
    """Permutation applying ``q`` first, then ``p``."""
    return tuple(p[x] for x in q)


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles of ``p``, each rotated to start at its minimum."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycles_str(p: Perm, base: int = 0) -> str:
    cycles = perm_cycles(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(v + base) for v in cyc) + ")" for cyc in cycles)


def is_automorphism(g: Graph, p: Perm) -> bool:
    """True iff ``p`` maps edges to edges and non-edges to non-edges."""
    n = g.n
    if len(p) != n:
        raise ValueError(f"permutation length {len(p)} != n={n}")
    if set(p) != set(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    return g.relabel(p) == g


# -- equitable refinement ----------------------------------------------


def _mask(cell: tuple[int, ...]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(rows: tuple[int, ...], cells: list[tuple[int, ...]],
            splitters: list[tuple[int, ...]] | None = None) -> list[tuple[int, ...]]:
    """Coarsest equitable refinement of an ordered partition.

    Split groups are ordered by neighbor count, so the refined cell order
    depends only on isomorphism-invariant data.  The LIFO queue starts with
    ``splitters`` (default: every cell).  After ``_individualize(cells, i, v)``
    of an equitable partition, ``[cells[i + 1]]`` gives the same result: an
    old cell never splits a subset of an old cell, and ``(v,)`` splits
    nothing once the remainder is drained.  A discrete partition ends it.
    """
    cells = list(cells)
    queue = [_mask(c) for c in (cells if splitters is None else splitters)]
    while queue and len(cells) < len(rows):
        splitter = queue.pop()
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((rows[v] & splitter).bit_count(), []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                for key in sorted(groups):
                    part = tuple(groups[key])
                    out.append(part)
                    queue.append(_mask(part))
        cells = out
    return cells


def _first_target(cells: list[tuple[int, ...]]) -> int:
    """Index of the first smallest non-singleton cell, or -1 if discrete."""
    best = -1
    best_len = None
    for i, c in enumerate(cells):
        if len(c) > 1 and (best_len is None or len(c) < best_len):
            best = i
            best_len = len(c)
    return best


def _individualize(cells: list[tuple[int, ...]], i: int, v: int) -> list[tuple[int, ...]]:
    rest = tuple(x for x in cells[i] if x != v)
    return cells[:i] + [(v,)] + [rest] + cells[i + 1:]


def _child(rows, cells: list[tuple[int, ...]], i: int, v: int) -> list[tuple[int, ...]]:
    """Equitable ``cells`` with ``v`` individualized, refined from the new
    remainder cell only."""
    cells = _individualize(cells, i, v)
    return _refine(rows, cells, [cells[i + 1]])


def _leaf_perm(cells1, cells2, n: int) -> Perm:
    p = [0] * n
    for c1, c2 in zip(cells1, cells2):
        p[c1[0]] = c2[0]
    return tuple(p)


def _leaf_bits(rows, cells, n: int) -> int:
    """Upper-triangle bits, column by column, of the graph relabelled by a
    discrete partition (``cells[j][0]`` gets label j).

    Vertex v holds bit ``n-1-label(v)``, so the relabelled row of label j
    keeps the bits of labels below j in its top j bits, in column order:
    O(n + m) work per leaf.
    """
    bit = [0] * n
    for i, (v,) in enumerate(cells):
        bit[v] = 1 << (n - 1 - i)
    acc = 0
    for j, (v,) in enumerate(cells):
        row = 0
        r = rows[v]
        while r:
            b = r & -r
            row |= bit[b.bit_length() - 1]
            r ^= b
        acc = (acc << j) | (row >> (n - j))
    return acc


def _orbit(points, gens) -> set:
    """Closure of ``points`` under the maps ``gens`` (indexed by point)."""
    orbit = set(points)
    frontier = list(orbit)
    while frontier:
        x = frontier.pop()
        for p in gens:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _search(rows, n, cells, first: bool = False) -> tuple[int, list[Perm]]:
    """Minimum leaf triangle-bit value over the individualization tree of
    the ordered partition ``cells``, and the automorphisms found.

    A leaf whose bits equal the best leaf's gives an automorphism (leaf
    order to best-leaf order), which is kept; ``first`` stops the search
    there.  A child in the orbit of an explored sibling under the kept
    automorphisms fixing the node's path is skipped, and a branch that a
    new automorphism maps onto the best leaf's branch is abandoned.  Both
    skip only subtrees that an automorphism maps onto explored ones, so
    the minimum is unchanged, and the automorphisms found generate the
    group fixing every cell of ``cells`` (McKay & Piperno 2014).
    """
    best = None                     # (bits, path, cells) of the best leaf
    auts: list[Perm] = []

    def rec(cells, path) -> int:
        # Takes an equitable partition; returns the depth to unwind to,
        # and len(path) or more carries on.
        nonlocal best
        i = _first_target(cells)
        if i < 0:
            bits = _leaf_bits(rows, cells, n)
            if best is None or bits < best[0]:
                best = (bits, path, cells)
            elif bits == best[0]:
                sigma = _leaf_perm(cells, best[2], n)
                auts.append(sigma)
                if first:
                    return -1
                bpath = best[1]
                d = next(k for k, v in enumerate(path) if v != bpath[k])
                if sigma[path[d]] == bpath[d] and all(sigma[v] == v for v in path[:d]):
                    return d
            return n
        explored: list[int] = []
        for w in cells[i]:
            if explored and w in _orbit(
                    explored, [s for s in auts if all(s[v] == v for v in path)]):
                continue
            explored.append(w)
            back = rec(_child(rows, cells, i, w), path + (w,))
            if back < len(path):
                return back
        return n

    rec(_refine(rows, cells), ())
    return best[0], auts


# -- public asymmetry / group API ---------------------------------------


def find_nontrivial_automorphism(g: Graph) -> Perm | None:
    """Some non-identity automorphism of ``g``, or None when asymmetric."""
    if g.n <= 1:
        return None
    auts = _search(g.rows, g.n, [tuple(range(g.n))], first=True)[1]
    return auts[0] if auts else None


def is_asymmetric(g: Graph) -> bool:
    """True iff the automorphism group is trivial."""
    return find_nontrivial_automorphism(g) is None


@dataclass(frozen=True)
class AutReport:
    """Automorphism group summary: exact order, generators, vertex orbits."""

    is_asymmetric: bool
    order: int
    generators: tuple[Perm, ...]
    orbits: tuple[tuple[int, ...], ...]


def automorphism_group(g: Graph) -> AutReport:
    """Generators, exact order and orbits from the canonical tree search.

    The generators are the automorphisms found by one search of the
    root partition.  The base is the search's first path: each step
    individualizes the first vertex of the first smallest non-singleton
    cell.  The search runs the subtree below the k-th base node first,
    exactly as a search of that node's partition would, so the
    generators fixing the first k base points generate their pointwise
    stabilizer.  The order is the product of each base point's orbit
    under the generators fixing the earlier ones, computed exactly.
    """
    n = g.n
    rows = g.rows
    if n == 0:
        return AutReport(True, 1, (), ())
    cells = _refine(rows, [tuple(range(n))])
    generators = _search(rows, n, cells)[1]
    auts = generators
    order = 1
    while auts:     # they move a vertex, so some cell is not a singleton
        i = _first_target(cells)
        b = cells[i][0]
        order *= len(_orbit([b], auts))
        auts = [s for s in auts if s[b] == b]
        cells = _child(rows, cells, i, b)
    orbits: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for v in range(n):
        if v not in seen:
            orbit = _orbit([v], generators)
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return AutReport(order == 1, order, tuple(generators), tuple(orbits))


def _closure(generators, n: int, cap: int) -> tuple[np.ndarray, bool]:
    """Dimino's coset algorithm over numpy rows: the group generated by
    the longest prefix of ``generators`` that fits under ``cap``, as a
    ``(order, n)`` int32 array with the identity first, and whether every
    generator fit.

    The group H of the generators taken so far grows by whole right
    cosets H x, the rows ``H[:, x]``: each new x is a coset representative
    times a generator, and membership is by row bytes.
    """
    elems = np.arange(n, dtype=np.int32)[None]
    seen = {elems[0].tobytes()}
    gens: list[np.ndarray] = []
    for s in generators:
        s = np.array(s, dtype=np.int32)
        if s.tobytes() in seen:
            continue
        gens.append(s)
        cosets = [elems]
        reps = [elems[0]]
        for r in reps:                  # reps grows while it is read
            for t in gens:
                x = r[t]
                if x.tobytes() not in seen:
                    if len(elems) * (len(cosets) + 1) > cap:
                        return elems, False
                    cosets.append(np.take(elems, x, axis=1))
                    seen.update(cosets[-1].view(f"V{4 * n}").ravel().tolist())
                    reps.append(x)
        elems = np.concatenate(cosets)
    return elems, True


def group_elements(generators, n: int, cap: int = MAX_CLOSURE) -> list[Perm] | None:
    """All elements generated by ``generators`` as sorted tuples, read off
    the array that ``_closure`` builds (None if more than ``cap``)."""
    elems, whole = _closure(generators, n, cap)
    return sorted(map(tuple, elems.tolist())) if whole else None


def subgroup_elements(generators, n: int, cap: int = MAX_CLOSURE) -> list[Perm]:
    """Closure of as many leading generators as fit under ``cap``, sorted.

    Always contains the identity and is closed under composition, so
    min-image over it is a sound (possibly coarse) orbit canonicalizer.
    """
    return sorted(map(tuple, _closure(generators, n, cap)[0].tolist()))


# -- canonical form -----------------------------------------------------


def canonical_form(g: Graph) -> bytes:
    """Label-invariant encoding; equal bytes iff isomorphic graphs.

    Defined as the lexicographically minimal upper-triangle bit string
    over all discrete partitions reached by the individualization-
    refinement tree, returned as the graph6 bytes of that labeling.
    """
    n = g.n
    if n <= 1:
        return pack_triangle_bits(n, 0)
    return pack_triangle_bits(n, _search(g.rows, n, [tuple(range(n))])[0])


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# -- transposable pairs -------------------------------------------------


def can_transpose(g: Graph, u: int, v: int) -> bool:
    """True iff some automorphism swaps ``u`` and ``v``.

    The canonical leaves of the partitions [u | v | rest] and
    [v | u | rest] are equal iff some automorphism maps one onto the
    other.  Individualized singletons keep their positions in every
    leaf, so the leaf map then sends u to v and v to u.
    """
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("transposition needs two distinct vertices")
    rest = tuple(x for x in range(g.n) if x != u and x != v)
    tail = [rest] if rest else []
    return (_search(g.rows, g.n, [(u,), (v,)] + tail)[0]
            == _search(g.rows, g.n, [(v,), (u,)] + tail)[0])


def _pair_orbits(pairs, generators) -> list[set[tuple[int, int]]]:
    """Orbits of the group generated by ``generators`` on ``pairs``, a list
    of unordered ``(u, v)``, ``u < v``, pairs closed under the group, in
    the order of each orbit's first pair."""
    pair_gens = [{(u, v): (min(p[u], p[v]), max(p[u], p[v])) for u, v in pairs}
                 for p in generators]
    orbits: list[set[tuple[int, int]]] = []
    seen: set[tuple[int, int]] = set()
    for pair in pairs:
        if pair not in seen:
            orbit = _orbit([pair], pair_gens)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def transposable_pairs(g: Graph) -> set[tuple[int, int]]:
    """All unordered pairs swapped by some automorphism.

    Swappability is constant on an orbit of the group on unordered
    pairs, so one pair per orbit is tested.
    """
    report = automorphism_group(g)
    pairs = [pair for orbit in report.orbits
             for pair in itertools.combinations(orbit, 2)]
    out: set[tuple[int, int]] = set()
    for orbit in _pair_orbits(pairs, report.generators):
        if can_transpose(g, *min(orbit)):
            out |= orbit
    return out
