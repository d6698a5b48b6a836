"""Automorphism-group machinery: asymmetry decisions, group order and
orbits, canonical forms, and transposable vertex pairs.

Everything is built on one primitive: an individualization-refinement
tree search of one ordered partition (``_search``).  Refinement orders
split cells by neighbor-count signatures, which keeps partition traces
label-invariant, so the least leaf over the tree is a canonical form of
the graph with its ordered partition.  A leaf equal to the best one
gives an automorphism; the automorphisms found prune the tree and
generate the group that fixes the partition's cells.  Cells are vertex
bitmasks.  Refinement is incremental: a tree node individualizes one
vertex of an equitable partition, and only the remainder of its cell is
queued as a splitter; a splitter counts only inside the cells that meet
its neighbourhood; refinement stops once the partition is discrete.  Each of
these yields the same ordered partition as queueing and scanning every
cell.

Swapping two open twins (equal rows) or two closed twins (equal rows
plus their own bits) is an automorphism, so twins answer the asymmetry
test without a search.  Such a swap fixes every cell holding both twins,
so every tree search starts with these transpositions: they prune only
subtrees that map onto explored ones, and a twin class costs one path
instead of a sibling leaf per twin.

The class walk of ``search`` canonicalizes each child on its twin
quotient instead (``_class_search``): every twin class becomes one
vertex coloured by its kind and size, so the tree search runs on fewer
vertices, and its key and lifted generators, with a swap and a cycle
per twin class, stand in for the leaf, generators and order of the
whole graph.
"""

from __future__ import annotations

import itertools
import math

from .graph import Frozen, Graph, _iter_bits, pack_triangle_bits, triangle_bits

Perm = tuple[int, ...]

# Largest automorphism group that is ever enumerated element by element.
# Only the tests and the bench tracer build this table.
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
    """True iff ``p`` maps edges to edges and non-edges to non-edges;
    ValueError (from ``Graph.relabel``) if ``p`` is not a permutation."""
    return g.relabel(p) == g


# -- equitable refinement ----------------------------------------------


def _refine(rows: tuple[int, ...], cells: list[int],
            splitters: list[int] | None = None) -> list[int]:
    """Coarsest equitable refinement of an ordered partition.

    Split groups are ordered by neighbor count, so the refined cell order
    depends only on isomorphism-invariant data.  A splitter scans every
    cell but counts only inside the cells that meet its neighbourhood
    ``hit``, whose count-0 part is ``cell & ~hit``; every other cell
    counts 0 and stays whole.  The LIFO queue starts with
    ``splitters`` (default: every cell).  After ``_individualize(cells,
    i, v)`` of an equitable partition, ``[cells[i + 1]]`` gives the same
    result: an old cell never splits a subset of an old cell, and
    ``1 << v`` splits nothing once the remainder is drained.  A discrete
    partition ends it.  A one-vertex splitter counts only 0 and 1, so a
    cell it splits becomes ``[cell & ~hit, cell & hit]`` with no count
    per vertex.
    """
    cells = list(cells)
    queue = list(cells if splitters is None else splitters)
    while queue and len(cells) < len(rows):
        splitter = queue.pop()
        hit = 0
        rest = splitter
        while rest:
            b = rest & -rest
            hit |= rows[b.bit_length() - 1]
            rest ^= b
        out = []
        if not splitter & (splitter - 1):
            for cell in cells:
                touched = cell & hit
                if touched and touched != cell:
                    out += (cell ^ touched, touched)
                    queue += (cell ^ touched, touched)
                else:
                    out.append(cell)
        else:
            for cell in cells:
                touched = cell & hit
                if not touched or not cell & (cell - 1):
                    out.append(cell)
                    continue
                groups: dict[int, int] = {0: cell & ~hit} if cell != touched else {}
                while touched:
                    b = touched & -touched
                    touched ^= b
                    key = (rows[b.bit_length() - 1] & splitter).bit_count()
                    groups[key] = groups.get(key, 0) | b
                if len(groups) == 1:
                    out.append(cell)
                else:
                    for key in sorted(groups):
                        out.append(groups[key])
                        queue.append(groups[key])
        cells = out
    return cells


def _first_target(cells: list[int]) -> int:
    """Index of the first smallest non-singleton cell, or -1 if discrete."""
    best = -1
    best_len = None
    for i, c in enumerate(cells):
        if c & (c - 1) and (best_len is None or c.bit_count() < best_len):
            best = i
            best_len = c.bit_count()
    return best


def _individualize(cells: list[int], i: int, v: int) -> list[int]:
    return cells[:i] + [1 << v, cells[i] & ~(1 << v)] + cells[i + 1:]


def _child(rows, cells: list[int], i: int, v: int) -> list[int]:
    """Equitable ``cells`` with ``v`` individualized, refined from the new
    remainder cell only."""
    cells = _individualize(cells, i, v)
    return _refine(rows, cells, [cells[i + 1]])


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


def _orbit_partition(points, maps) -> list[tuple[int, ...]]:
    """Orbits of ``points`` (ascending, closed under ``maps``) under the
    maps, each sorted, in order of least point."""
    orbits, seen = [], set()
    for x in points:
        if x not in seen:
            orbit = _orbit([x], maps)
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return orbits


def _pair_index(n: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The pairs of ``range(n)`` in ``combinations(range(n), 2)`` order,
    and the n x n table whose entries [u][v] and [v][u] are the index of
    pair {u, v}."""
    pairs = list(itertools.combinations(range(n), 2))
    index = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        index[u][v] = index[v][u] = i
    return pairs, index


def _pair_maps(perms, pairs, index) -> list[list[int]]:
    """Each permutation as a map on pair indices, given ``_pair_index``'s
    pairs and table: entry i is the index of pair i's image."""
    return [[index[p[u]][p[v]] for u, v in pairs] for p in perms]


def _perm(n: int, src, dst) -> Perm:
    """The permutation of ``range(n)`` mapping each ``src`` vertex onto
    the ``dst`` vertex at its position and fixing the rest."""
    p = list(range(n))
    for v, w in zip(src, dst):
        p[v] = w
    return tuple(p)


def _has_twins(rows, n) -> bool:
    """True iff two vertices have equal rows (open twins) or equal rows
    plus their own bits (closed twins); ``_twin_pairs`` lists them."""
    return len(set(rows)) < n or len({r | 1 << v for v, r in enumerate(rows)}) < n


def _twin_pairs(rows, n, cells) -> list[tuple[int, int]]:
    """Each two consecutive members (u, v) of a twin class inside one cell
    of ``cells``: open twins, then closed twins; cell by cell; by v.
    Swapping u and v is an automorphism fixing every cell."""
    out = []
    for keys in (rows, [r | 1 << v for v, r in enumerate(rows)]):
        if len(set(keys)) == n:
            continue
        for cell in cells:
            last: dict[int, int] = {}      # key to its last member so far
            for v in _iter_bits(cell):
                u = last.get(keys[v])
                if u is not None:
                    out.append((u, v))
                last[keys[v]] = v
    return out


def _search(rows, n, cells, first: bool = False
            ) -> tuple[int | None, list[Perm], tuple[int, ...] | None]:
    """Minimum leaf triangle-bit value over the individualization tree of
    the ordered partition ``cells``, the automorphisms found, and the
    path to the first leaf.  That path individualizes, at each level, the
    least vertex of the first smallest non-singleton cell.  Empty cells
    are dropped first, so a partition of no vertices is one leaf.

    The kept automorphisms start with the swaps of the ``_twin_pairs`` of
    ``cells``; a leaf whose bits equal the best leaf's adds one (leaf order
    to best-leaf order).  ``first`` returns once one is kept, with a leaf
    and path that mean nothing (None if a seed ended it).  A child in the
    orbit of an explored sibling under the kept automorphisms fixing the
    node's path is skipped, and a branch that a new automorphism maps onto
    the best leaf's branch is abandoned.  Both skip only subtrees that an
    automorphism fixing every cell maps onto explored ones, so the minimum
    and the first path stay, and the kept automorphisms generate the group
    fixing every cell (McKay & Piperno 2014).  A node recomputes its
    skipped set only after a subtree found new automorphisms.
    """
    auts: list[Perm] = []           # the seeds, built inline: a hot path
    for u, v in _twin_pairs(rows, n, cells):
        p = list(range(n))
        p[u], p[v] = v, u
        auts.append(tuple(p))
    if first and auts:
        return None, auts, None
    best = None                     # (bits, path, order) of the best leaf
    head = None                     # path of the first leaf

    def rec(cells, path) -> int:
        # Takes an equitable partition; returns the depth to unwind to,
        # and len(path) or more carries on.
        nonlocal best, head
        i = _first_target(cells)
        if i < 0:
            order = [c.bit_length() - 1 for c in cells]
            bits = triangle_bits(rows, order)
            if best is None:
                head = path
            if best is None or bits < best[0]:
                best = (bits, path, order)
            elif bits == best[0]:
                # the leaf's label-j vertex to the best's
                sigma = _perm(n, order, best[2])
                auts.append(sigma)
                if first:
                    return -1
                bpath = best[1]
                d = next(k for k, v in enumerate(path) if v != bpath[k])
                if sigma[path[d]] == bpath[d] and all(sigma[v] == v for v in path[:d]):
                    return d
            return n
        explored: list[int] = []
        known = -1                  # len(auts) when `pruned` was taken
        for w in _iter_bits(cells[i]):
            if explored:            # bring the orbit of explored up to date
                if len(auts) > known:
                    known = len(auts)
                    fixing = [s for s in auts if all(s[v] == v for v in path)]
                    pruned = _orbit(explored, fixing)
                elif explored[-1] not in pruned:
                    pruned |= _orbit(explored[-1:], fixing)
                if w in pruned:
                    continue
            explored.append(w)
            back = rec(_child(rows, cells, i, w), path + (w,))
            if back < len(path):
                return back
        return n

    rec(_refine(rows, [c for c in cells if c]), ())
    del rec                         # it refers to itself: free it now
    return best[0], auts, head


def _base_order(auts, path) -> tuple[tuple[int, ...], int]:
    """Base and order of the group that ``_search``'s automorphisms
    ``auts`` generate, given its first ``path``.  The base is the prefix of
    the path along which some generator fixing the earlier base points is
    left.  The search runs the subtree below the k-th base node first, so
    the generators fixing the first k base points generate their
    pointwise stabilizer, and the order is the product of each base
    point's orbit under the generators fixing the earlier ones."""
    order, base = 1, ()
    while auts:     # they move a vertex, so the first path goes deeper
        b = path[len(base)]
        base += (b,)
        order *= len(_orbit([b], auts))
        auts = [s for s in auts if s[b] == b]
    return base, order


def _class_search(rows, n) -> tuple[object, list[Perm], int]:
    """A key, equal for two graphs on n vertices iff they are isomorphic,
    generators of the automorphism group of the graph with these rows,
    and the group's order, from a search of its twin quotient.

    The ``_twin_pairs`` of the whole vertex set chain into the nontrivial
    twin classes (a vertex lies in at most one: open twins are never
    adjacent, closed twins always are).  Each merges into one vertex
    coloured (kind, size), kind 1 open and 2 closed; a vertex in none is
    coloured (1, 1), first in colour order.  Twins agree outside their
    class, so the coloured quotient determines the graph: the key is the
    sorted colours and the quotient's least leaf, one cell per colour in
    sorted order.  The quotient's generators, lifted sorted members onto
    sorted members, and for each class the swap of its first two members
    and the cycle of all of them generate the group.  Its order is the
    coloured quotient's (``_base_order``) times t! per twin class of size
    t: every quotient automorphism lifts, and the ones that lift to the
    identity permute each twin class freely.  A twin-free graph is
    searched whole, and its key is its leaf.
    """
    twins = _twin_pairs(rows, n, [(1 << n) - 1])
    if not twins:
        leaf, gens, head = _search(rows, n, [(1 << n) - 1])
        return leaf, gens, _base_order(gens, head)[1]
    block: dict[int, list[int]] = {}    # each twin to its class's members
    for u, v in twins:
        block[v] = block.setdefault(u, [u])
        block[v].append(v)
    q = [-1] * n                    # each vertex's quotient vertex
    colours, members, gens = [], [], []
    for v in range(n):
        if q[v] < 0:
            vs = block.get(v, [v])
            for w in vs:
                q[w] = len(members)
            colours.append((1 + (rows[v] >> vs[-1] & 1), len(vs)))
            members.append(vs)
            if len(vs) > 1:
                gens.append(_perm(n, vs[:2], vs[1::-1]))
            if len(vs) > 2:
                gens.append(_perm(n, vs, vs[1:] + vs[:1]))
    qrows = []
    for x, vs in enumerate(members):
        row, acc = rows[vs[0]], 0
        while row:
            b = row & -row
            acc |= 1 << q[b.bit_length() - 1]
            row ^= b
        qrows.append(acc & ~(1 << x))
    cells = [sum(1 << x for x, c in enumerate(colours) if c == colour)
             for colour in sorted(set(colours))]
    leaf, qgens, head = _search(qrows, len(members), cells)
    flat = [v for vs in members for v in vs]
    gens += [_perm(n, flat, [w for y in s for w in members[y]]) for s in qgens]
    order = _base_order(qgens, head)[1] * math.prod(math.factorial(len(vs))
                                                    for vs in members)
    return (tuple(sorted(colours)), leaf), gens, order


# -- public asymmetry / group API ---------------------------------------


def find_nontrivial_automorphism(g: Graph) -> Perm | None:
    """A non-identity automorphism (a twin swap if ``g`` has twins) or None."""
    auts = _search(g.rows, g.n, [(1 << g.n) - 1], first=True)[1]
    return auts[0] if auts else None


def is_asymmetric(g: Graph) -> bool:
    """True iff the automorphism group is trivial.  Swapping two twins is
    an automorphism, so twins answer False without building the seeds."""
    return not _has_twins(g.rows, g.n) and find_nontrivial_automorphism(g) is None


class AutReport(Frozen):
    """Automorphism group summary: exact order, generators, orbits, base."""

    __slots__ = ("is_asymmetric", "order", "generators", "orbits", "base")

    def __init__(self, is_asymmetric: bool, order: int, generators: tuple[Perm, ...],
                 orbits: tuple[tuple[int, ...], ...], base: tuple[int, ...]):
        self._set(is_asymmetric, order, generators, orbits, base)


def automorphism_group(g: Graph) -> AutReport:
    """Generators, exact order, orbits and base from one tree search.

    The generators are the twin transpositions and the automorphisms
    found by one search of the root partition; ``_base_order`` reads the
    base and the order off them and that search's first path.
    """
    n = g.n
    _, generators, path = _search(g.rows, n, [(1 << n) - 1])
    base, order = _base_order(generators, path)
    orbits = _orbit_partition(range(n), generators)
    return AutReport(order == 1, order, tuple(generators), tuple(orbits), base)


def _transversal(b: int, gens, n: int) -> list[Perm]:
    """Elements of <gens>, one mapping ``b`` to each orbit point, identity first."""
    reps = {b: tuple(range(n))}
    frontier = [b]
    for x in frontier:                  # frontier grows while it is read
        for s in gens:
            if s[x] not in reps:
                reps[s[x]] = compose(s, reps[x])
                frontier.append(s[x])
    return list(reps.values())


def subgroup_elements(report: AutReport, cap: int = MAX_CLOSURE) -> list[Perm]:
    """The group as a list of permutations, identity first; above ``cap``
    elements, the pointwise stabilizer of the shortest base prefix whose
    stabilizer fits.  The stabilizer of the first i base points is T times S:
    T is the transversal of base point i + 1 under the generators fixing
    the first i, S the stabilizer of the first i + 1.  So the list grows
    by ``compose(t, e)`` for t in T and e in S, t-major, from the deepest
    base point up.
    """
    n = sum(map(len, report.orbits))        # the orbits partition the vertices
    elems = [identity_perm(n)]
    for i, b in reversed(list(enumerate(report.base))):
        gens = [s for s in report.generators if all(s[c] == c for c in report.base[:i])]
        ts = _transversal(b, gens, n)
        if len(ts) * len(elems) > cap:
            break
        elems = [compose(t, e) for t in ts for e in elems]
    return elems


def group_elements(report: AutReport, cap: int = MAX_CLOSURE) -> list[Perm] | None:
    """Every automorphism as sorted tuples (None if more than ``cap``)."""
    if report.order > cap:
        return None
    return sorted(subgroup_elements(report, cap))


# -- canonical form -----------------------------------------------------


def canonical_form(g: Graph) -> bytes:
    """Label-invariant encoding; equal bytes iff isomorphic graphs.

    Defined as the lexicographically minimal upper-triangle bit string
    over all discrete partitions reached by the individualization-
    refinement tree, returned as the graph6 bytes of that labeling.
    """
    n = g.n
    leaf = _search(g.rows, n, [(1 << n) - 1])[0]
    return pack_triangle_bits(n, leaf)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# -- transposable pairs -------------------------------------------------


def can_transpose(g: Graph, u: int, v: int) -> bool:
    """True iff some automorphism swaps ``u`` and ``v``.

    One search of the partition [{u, v} | rest] keeps generators of the
    automorphisms fixing both cells.  Restricting them to {u, v} is a
    homomorphism onto a subgroup of Sym({u, v}), so some automorphism
    swaps u and v iff some generator maps u to v.
    """
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("transposition needs two distinct vertices")
    rest = ((1 << g.n) - 1) ^ (1 << u) ^ (1 << v)
    return any(s[u] == v for s in _search(g.rows, g.n, [1 << u | 1 << v, rest])[1])


def transposable_pairs(g: Graph) -> set[tuple[int, int]]:
    """All unordered pairs swapped by some automorphism.

    Some automorphism swaps u and v iff the ordered pair (v, u) lies in
    the orbit of (u, v) under the generators of ``automorphism_group``,
    each acting on the ordered pairs, point u * n + v.
    """
    n = g.n
    maps = [[p[u] * n + p[v] for u in range(n) for v in range(n)]
            for p in automorphism_group(g).generators]
    return {(u, v) for orbit in map(set, _orbit_partition(range(n * n), maps))
            for x in orbit for u, v in [divmod(x, n)]
            if u < v and v * n + u in orbit}
