"""Automorphism-group machinery: asymmetry decisions, group order and
orbits, canonical forms, and transposable vertex pairs.

Everything is built on one primitive: equitable partition refinement plus
backtracking individualization, run on a pair of ordered partitions (the
two sides coincide for automorphism questions).  Refinement orders split
cells by neighbor-count signatures, which keeps partition traces
label-invariant; that invariance is what makes positional cell matching
between the two sides complete.  Refinement is incremental: a tree node
individualizes one vertex of an equitable partition, and only the
remainder of its cell is queued as a splitter, which yields the same
ordered partition as queueing every cell; refinement also stops once the
partition is discrete.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    return _verify_mapping(g.rows, g.rows, p)


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


def _verify_mapping(rows1, rows2, p: Perm) -> bool:
    for v, row in enumerate(rows1):
        image = 0
        while row:
            b = row & -row
            image |= 1 << p[b.bit_length() - 1]
            row ^= b
        if image != rows2[p[v]]:
            return False
    return True


def _search_mapping(rows1, rows2, cells1, cells2, n: int,
                    skip_identity: bool = False) -> Perm | None:
    """Find a bijection respecting the paired equitable partitions, or None.

    With ``skip_identity`` (automorphism mode, rows1 is rows2) non-fixed
    target candidates are tried first and the identity leaf is rejected.
    """
    if len(cells1) != len(cells2):
        return None
    for c1, c2 in zip(cells1, cells2):
        if len(c1) != len(c2):
            return None
    i = _first_target(cells1)
    if i < 0:
        p = _leaf_perm(cells1, cells2, n)
        if skip_identity and is_identity(p):
            return None
        if _verify_mapping(rows1, rows2, p):
            return p
        return None
    u = cells1[i][0]
    candidates = list(cells2[i])
    if skip_identity and u in candidates:
        candidates = [w for w in candidates if w != u] + [u]
    branch1 = _child(rows1, cells1, i, u)
    for w in candidates:
        found = _search_mapping(rows1, rows2, branch1,
                                _child(rows2, cells2, i, w), n, skip_identity)
        if found is not None:
            return found
    return None


# -- public asymmetry / group API ---------------------------------------


def find_nontrivial_automorphism(g: Graph) -> Perm | None:
    """Some non-identity automorphism of ``g``, or None when asymmetric."""
    n = g.n
    if n <= 1:
        return None
    cells = _refine(g.rows, [tuple(range(n))])
    if all(len(c) == 1 for c in cells):
        return None
    return _search_mapping(g.rows, g.rows, cells, cells, n, skip_identity=True)


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


def _orbits_from_generators(n: int, generators) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in generators:
        for v in range(n):
            a, b = find(v), find(p[v])
            if a != b:
                parent[b] = a
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(vs)) for vs in groups.values()))


def _orbit(points, gens) -> set[int]:
    """Closure of ``points`` under the permutations ``gens``."""
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


def automorphism_group(g: Graph) -> AutReport:
    """Generators, exact order, and orbits via a stabilizer chain.

    At each level the smallest vertex in a non-singleton cell of the
    prefix-refined partition is taken as the next base point; its orbit
    under the prefix stabilizer is collected from one backtracking search
    per candidate (with Schreier-style closure to skip known images).
    The order is the product of the orbit sizes, computed exactly.
    """
    n = g.n
    rows = g.rows
    if n == 0:
        return AutReport(True, 1, (), ())
    generators: list[Perm] = []
    order = 1
    fixed: list[int] = []
    while True:
        base_cells = [(f,) for f in fixed]
        rest = tuple(v for v in range(n) if v not in fixed)
        if rest:
            base_cells = base_cells + [rest]
        refined = _refine(rows, base_cells)
        target = _first_target(refined)
        if target < 0:
            break
        b = refined[target][0]
        level_gens: list[Perm] = []
        orbit = {b}
        for w in refined[target][1:]:
            if w in orbit:
                continue
            cells1 = [(f,) for f in fixed] + [(b,)]
            cells2 = [(f,) for f in fixed] + [(w,)]
            others1 = tuple(v for v in range(n) if v not in fixed and v != b)
            others2 = tuple(v for v in range(n) if v not in fixed and v != w)
            if others1:
                cells1.append(others1)
                cells2.append(others2)
            sigma = _search_mapping(rows, rows, _refine(rows, cells1),
                                    _refine(rows, cells2), n)
            if sigma is None:
                continue
            level_gens.append(sigma)
            # Schreier closure: new generator may reach further orbit points.
            orbit = _orbit(orbit, level_gens)
        order *= len(orbit)
        generators.extend(level_gens)
        fixed.append(b)
    return AutReport(order == 1, order,
                     tuple(generators), _orbits_from_generators(n, generators))


def group_elements(generators, n: int, cap: int = MAX_CLOSURE) -> list[Perm] | None:
    """All elements generated by ``generators``, by Dimino's coset
    algorithm (None if more than ``cap``).

    The group H of the generators taken so far grows by whole right
    cosets H x: each new x is a coset representative times a generator.
    """
    ident = identity_perm(n)
    elems = [ident]
    seen = {ident}
    gens: list[Perm] = []
    for s in generators:
        s = tuple(s)
        if s in seen:
            continue
        gens.append(s)
        sub = list(elems)
        reps = [ident]
        for r in reps:                  # reps grows while it is read
            for t in gens:
                x = compose(r, t)
                if x not in seen:
                    if len(elems) + len(sub) > cap:
                        return None
                    coset = [compose(h, x) for h in sub]
                    elems.extend(coset)
                    seen.update(coset)
                    reps.append(x)
    return sorted(elems)


def subgroup_elements(generators, n: int, cap: int = MAX_CLOSURE) -> list[Perm]:
    """Closure of as many leading generators as fit under ``cap``.

    Always contains the identity and is closed under composition, so
    min-image over it is a sound (possibly coarse) orbit canonicalizer.
    """
    kept: list[Perm] = []
    elems = [identity_perm(n)]
    for gperm in generators:
        trial = group_elements(kept + [tuple(gperm)], n, cap)
        if trial is None:
            break
        kept.append(tuple(gperm))
        elems = trial
    return elems


# -- canonical form -----------------------------------------------------


def _leaf_bits(rows, cells, n: int) -> int:
    label_of = [0] * n
    for i, c in enumerate(cells):
        label_of[c[0]] = i
    old = [0] * n
    for v in range(n):
        old[label_of[v]] = v
    acc = 0
    for j in range(1, n):
        oj = old[j]
        for i in range(j):
            acc = (acc << 1) | ((rows[old[i]] >> oj) & 1)
    return acc


def _canon_search(rows, n, cells) -> int:
    """Minimum leaf triangle-bit value over the individualization tree.

    A leaf whose bits equal the best leaf's gives an automorphism (leaf
    order to best-leaf order), which is kept.  A child in the orbit of an
    explored sibling under the kept automorphisms fixing the node's path
    is skipped, and a branch that a new automorphism maps onto the best
    leaf's branch is abandoned.  Both skip only subtrees that an
    automorphism maps onto explored ones, so the minimum is unchanged.
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
    return best[0]


def canonical_form(g: Graph) -> bytes:
    """Label-invariant encoding; equal bytes iff isomorphic graphs.

    Defined as the lexicographically minimal upper-triangle bit string
    over all discrete partitions reached by the individualization-
    refinement tree, returned as the graph6 bytes of that labeling.
    """
    n = g.n
    if n <= 1:
        return pack_triangle_bits(n, 0)
    return pack_triangle_bits(n, _canon_search(g.rows, n, [tuple(range(n))]))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


# -- transposable pairs -------------------------------------------------


def can_transpose(g: Graph, u: int, v: int) -> bool:
    """True iff some automorphism swaps ``u`` and ``v``.

    One bounded search per pair: u and v are individualized into each
    other's cells so the swap is forced; the rest of the group is never
    enumerated.
    """
    n = g.n
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("transposition needs two distinct vertices")
    rest1 = tuple(x for x in range(n) if x != u and x != v)
    cells1 = [(u,), (v,)] + ([rest1] if rest1 else [])
    cells2 = [(v,), (u,)] + ([rest1] if rest1 else [])
    return _search_mapping(g.rows, g.rows, _refine(g.rows, cells1),
                           _refine(g.rows, cells2), n) is not None


def transposable_pairs(g: Graph) -> set[tuple[int, int]]:
    """All unordered pairs swapped by some automorphism."""
    report = automorphism_group(g)
    orbit_of = {}
    for orbit in report.orbits:
        for v in orbit:
            orbit_of[v] = orbit[0]
    out = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if orbit_of[u] != orbit_of[v]:
                continue
            if can_transpose(g, u, v):
                out.add((u, v))
    return out


def _max_clique(adj: list[int], n: int) -> int:
    """Exact maximum clique size by branch and bound with greedy coloring."""
    if n == 0:
        return 0
    best = 0

    def color_bound(pmask: int) -> list[tuple[int, int]]:
        # (vertex, color) in increasing color order; the color number is an
        # upper bound on the clique size inside the candidate set.
        out = []
        color = 0
        remaining = pmask
        while remaining:
            color += 1
            avail = remaining
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                out.append((v, color))
                remaining ^= b
                avail &= ~adj[v]
                avail &= ~b
        return out

    def expand(size: int, pmask: int):
        nonlocal best
        if not pmask:
            best = max(best, size)
            return
        colored = color_bound(pmask)
        for v, color in reversed(colored):
            if size + color <= best:
                return
            expand(size + 1, pmask & adj[v])
            pmask &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best


def transposable_clique_lower_bound(g: Graph) -> int:
    """floor((t-1)/2) where t is the largest pairwise-transposable vertex set.

    t is the maximum clique of the transposability graph, found exactly.
    The bound is reported as stated; whether it actually bounds the index
    for a given graph is the harness's business to record.
    """
    pairs = transposable_pairs(g)
    adj = [0] * g.n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    t = max(_max_clique(adj, g.n), 1) if g.n else 0
    return max(t - 1, 0) // 2
