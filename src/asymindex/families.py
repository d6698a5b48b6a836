"""Generators for named graph families and the catalog of explicit
edge-edit witnesses used throughout the claim ledger.

All internal labels are 0-based.  Construction texts that label vertices
v_1..v_n map to indices via v_k -> k-1, so e.g. the chord "v_2 v_4" on a
path becomes the pair (1, 3).
"""

from __future__ import annotations

from .graph import Frozen, Graph, cartesian_product, disjoint_union, join, bfs_distances
from .search import FlipSet
from .enumeration import asymmetric_trees

WITNESS_NAMES = ("path-add-chord", "cycle-remove-add", "cycle-two-chords",
                 "wheel-two-removals", "circulant-remove2", "circulant-add2",
                 "circulant-mixed", "grid-corner", "pxc-two-removals",
                 "split-construction")

#: Separator between the two integer parameters of a two-factor kind.
_SEPARATORS = {"grid": "x", "pxc": "x", "torus": "x", "split": "+"}


class FamilySpec(Frozen):
    """Tagged family choice, convertible to and from the CLI text syntax.

    Examples: ``path:9``, ``circulant:17:1,4``, ``grid:3x4``, ``split:8+3``.
    """

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: tuple):
        self._set(kind, args)

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        head, _, rest = text.strip().partition(":")
        kind = head.strip().lower()
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {head!r}")
        try:
            if kind in _SEPARATORS:
                a, _, b = rest.partition(_SEPARATORS[kind])
                return cls(kind, (int(a), int(b)))
            if kind == "circulant":
                m_text, _, dists = rest.partition(":")
                s = tuple(sorted({int(tok) for tok in dists.split(",") if tok.strip()}))
                if not s:
                    raise ValueError
                return cls(kind, (int(m_text), s))
            return cls(kind, (int(rest),))
        except ValueError:
            raise ValueError(f"bad parameters in family spec {text!r}") from None

    def __str__(self) -> str:
        k, a = self.kind, self.args
        if k == "circulant":
            return f"circulant:{a[0]}:{','.join(str(d) for d in a[1])}"
        if k in _SEPARATORS:
            return f"{k}:{a[0]}{_SEPARATORS[k]}{a[1]}"
        return f"{k}:{a[0]}"


# -- generators ---------------------------------------------------------


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    return Graph.complete(n)


def star(n: int) -> Graph:
    """Center 0 joined to leaves 1..n-1."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def wheel(n: int) -> Graph:
    """Hub 0 joined to every vertex of the rim cycle 1..n-1 (n vertices)."""
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    return join(Graph.empty(1), cycle(n - 1))


def circulant(m: int, dists) -> Graph:
    """Vertices 0..m-1 with i ~ j iff (i - j) mod m is in S or m - S."""
    s = sorted(set(dists))
    if m < 3:
        raise ValueError("circulant needs at least 3 vertices")
    for d in s:
        if not 1 <= d <= m // 2:
            raise ValueError(f"connection distance {d} outside 1..{m // 2}")
    edges = set()
    for v in range(m):
        for d in s:
            edges.add(tuple(sorted((v, (v + d) % m))))
    return Graph.from_edges(m, sorted(edges))


def grid(r: int, s: int) -> Graph:
    """Path-by-path product; vertex (i, j) has index i*s + j."""
    if r < 1 or s < 1:
        raise ValueError("grid dimensions must be positive")
    return cartesian_product(path(r), path(s))


def path_cycle(r: int, s: int) -> Graph:
    if r < 1:
        raise ValueError("path factor needs at least 1 vertex")
    return cartesian_product(path(r), cycle(s))


def torus(r: int, s: int) -> Graph:
    return cartesian_product(cycle(r), cycle(s))


def split(s: int, t: int) -> Graph:
    """Clique on 0..s-1 plus t isolated vertices."""
    if s < 1 or t < 0:
        raise ValueError("split graph needs s >= 1 and t >= 0")
    return disjoint_union(Graph.complete(s), Graph.empty(t))


def cycle_with_pendant_paths(l: int) -> Graph:
    """Cycle C_l with paths P_6, P_7, ..., P_{l+5} hung off its vertices.

    Path i (of length 6 + i) occupies a consecutive index block after the
    cycle and is joined by one edge from its first vertex (a former
    degree-1 end) to cycle vertex i.
    """
    if l < 3:
        raise ValueError("pendant-cycle needs l >= 3")
    edges = [(i, (i + 1) % l) for i in range(l)]
    base = l
    for i in range(l):
        size = 6 + i
        edges += [(base + j, base + j + 1) for j in range(size - 1)]
        edges.append((i, base))
        base += size
    return Graph.from_edges(base, edges)


_CONSTRUCTORS = {"path": path, "cycle": cycle, "complete": complete,
                 "star": star, "wheel": wheel, "circulant": circulant,
                 "grid": grid, "pxc": path_cycle, "torus": torus,
                 "split": split, "pendant-cycle": cycle_with_pendant_paths}

FAMILY_KINDS = tuple(_CONSTRUCTORS)


def generate(spec: FamilySpec) -> Graph:
    if spec.kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown family kind {spec.kind!r}")
    return _CONSTRUCTORS[spec.kind](*spec.args)


# -- witness catalog ------------------------------------------------------


def _circulant_order(n: int, sign: str) -> int:
    if sign not in ("+", "-"):
        raise ValueError("circulant witness sign must be '+' or '-'")
    return n * n + 1 if sign == "+" else n * n - 1


def witness(name: str, *args) -> tuple[FamilySpec, FlipSet]:
    """Known asymmetrizing edit for a family, as (base spec, flips).

    Catalog (0-based labels throughout):

    - ``path-add-chord(n)``: add (1, 3) to P_n, n >= 6.
    - ``cycle-remove-add(n)``: remove (0, n-1), add (1, 3) on C_n, n >= 6.
    - ``cycle-two-chords(n, k, m, l)``: chords (0, k-1) and (0, k+m-3) on
      C_n, cutting it into a k-, m- and l-cycle; needs k+m+l = n+4,
      2 < k < l, m >= 3.
    - ``wheel-two-removals(n)``: remove rim edge (1, 2) and spoke (0, 1)
      from W_n, n >= 6.
    - ``circulant-remove2(n, sign)``: remove (1, 2) and (3, 3+n) from
      C_{n^2 +/- 1}(1, n), n >= 4.
    - ``circulant-add2(n, sign)``: add (0, 2) and (0, 3).
    - ``circulant-mixed(n, sign)``: add (0, 2), remove (3, 3+n).
    - ``grid-corner(r, s)``: remove the corner edge (0,0)-(1,0) from the
      r-by-s grid, r >= 2.
    - ``pxc-two-removals(r, s)``: remove the cycle edge (0,0)-(0,1) and
      the path edge (0,0)-(1,0) from P_r x C_s.
    - ``split-construction(s, t)``: on the split graph, remove the edges
      of an asymmetric tree placed on clique vertices 0..s-2, path the
      first t-1 isolated vertices together and join that path to vertex
      s-1 (the unique maximum-degree vertex); s >= 8, t >= 1.
    """
    if name == "path-add-chord":
        (n,) = args
        if n < 6:
            raise ValueError("path witness needs n >= 6")
        return FamilySpec("path", (n,)), FlipSet(added=frozenset([(1, 3)]))

    if name == "cycle-remove-add":
        (n,) = args
        if n < 6:
            raise ValueError("cycle witness needs n >= 6")
        return (FamilySpec("cycle", (n,)),
                FlipSet(removed=frozenset([(0, n - 1)]), added=frozenset([(1, 3)])))

    if name == "cycle-two-chords":
        n, k, m, l = args
        if k + m + l != n + 4:
            raise ValueError(f"need k+m+l = n+4, got {k}+{m}+{l} != {n}+4")
        if not (2 < k < l):
            raise ValueError(f"need 2 < k < l, got k={k}, l={l}")
        if m < 3:
            raise ValueError(f"need m >= 3, got m={m}")
        chords = frozenset([(0, k - 1), (0, k + m - 3)])
        return FamilySpec("cycle", (n,)), FlipSet(added=chords)

    if name == "wheel-two-removals":
        (n,) = args
        if n < 6:
            raise ValueError("wheel witness needs n >= 6")
        return (FamilySpec("wheel", (n,)),
                FlipSet(removed=frozenset([(1, 2), (0, 1)])))

    if name in ("circulant-remove2", "circulant-add2", "circulant-mixed"):
        n, sign = args
        if n < 4:
            raise ValueError("circulant witness needs n >= 4")
        m = _circulant_order(n, sign)
        spec = FamilySpec("circulant", (m, (1, n)))
        if name == "circulant-remove2":
            flips = FlipSet(removed=frozenset([(1, 2), (3, 3 + n)]))
        elif name == "circulant-add2":
            flips = FlipSet(added=frozenset([(0, 2), (0, 3)]))
        else:
            flips = FlipSet(removed=frozenset([(3, 3 + n)]), added=frozenset([(0, 2)]))
        return spec, flips

    if name == "grid-corner":
        r, s = args
        if r < 2 or s < 2:
            raise ValueError("grid witness needs r, s >= 2")
        return (FamilySpec("grid", (r, s)),
                FlipSet(removed=frozenset([(0, s)])))

    if name == "pxc-two-removals":
        r, s = args
        if r < 2 or s < 3:
            raise ValueError("path-cycle witness needs r >= 2, s >= 3")
        return (FamilySpec("pxc", (r, s)),
                FlipSet(removed=frozenset([(0, 1), (0, s)])))

    if name == "split-construction":
        s, t = args
        if s < 8:
            raise ValueError("split witness needs s >= 8 (asymmetric tree on s-1)")
        if t < 1:
            raise ValueError("split witness needs t >= 1")
        tree = asymmetric_trees(s - 1)[0]
        removed = frozenset(tree.edges())
        added = set()
        if t >= 2:
            added.update((s + i, s + i + 1) for i in range(t - 2))
            added.add((s - 1, s))
        return (FamilySpec("split", (s, t)),
                FlipSet(removed=removed, added=frozenset(added)))

    raise ValueError(f"unknown witness {name!r}; catalog: {', '.join(WITNESS_NAMES)}")


# -- single-vertex extension ----------------------------------------------


def pendant_extension(g: Graph) -> Graph:
    """Extend by one vertex and one edge, preserving asymmetry.

    Without a degree-1 vertex the new pendant goes on a maximum-degree
    vertex (lowest index on ties).  Otherwise the pendant extends the
    degree-1 vertex whose distance to the nearest vertex of degree >= 3
    is greatest (lowest index on ties).
    """
    n = g.n
    if n == 0:
        raise ValueError("cannot extend the empty graph")
    degs = [g.rows[v].bit_count() for v in range(n)]
    leaves = [v for v in range(n) if degs[v] == 1]
    if not leaves:
        anchor = max(range(n), key=lambda v: (degs[v], -v))
    else:
        branch = [v for v in range(n) if degs[v] >= 3]
        if not branch:
            raise ValueError("extension undefined: degree-1 vertex but no vertex of degree >= 3")
        best: tuple[float, int] | None = None
        for u in leaves:
            dist = bfs_distances(g, u)
            d = min(dist[b] for b in branch)
            if best is None or d > best[0]:
                best = (d, u)
        anchor = best[1]
    rows = list(g.rows) + [1 << anchor]
    rows[anchor] |= 1 << n
    return Graph(n + 1, rows, _trusted=True)
