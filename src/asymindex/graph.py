"""Immutable bitset-backed simple graphs with graph6 and edge-list I/O.

Each adjacency row is a single Python int used as a bitset (bit ``j`` of
``rows[v]`` is set iff ``v ~ j``), so the single-word fast path for small
graphs and arbitrary vertex counts both come for free.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

# Largest vertex count representable with the 4-byte graph6 size field.
GRAPH6_MAX_N = 258047


class Graph6Error(ValueError):
    """Malformed graph6 bytes."""


def _iter_bits(x: int) -> Iterator[int]:
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class Record:
    """A record of named fields, its ``__slots__``: equal to a record of
    the same type whose fields are all equal, and unhashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()


class Frozen(Record):
    """An immutable record, hashed by its fields.  Copy and pickle go back
    through the constructor, so they re-validate."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Write the fields once, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (type(self), self._fields())


class Graph(Frozen):
    """Undirected simple graph on vertices ``0..n-1``.

    Instances are immutable values: edit operations return new graphs, so
    search layers can share a base graph freely (also across threads).
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int] | None = None, *, _trusted: bool = False):
        rows = tuple([0] * n) if rows is None else tuple(rows)
        if not _trusted:
            if n < 0:
                raise ValueError("vertex count must be nonnegative")
            if len(rows) != n:
                raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
            for v, row in enumerate(rows):
                if row >> n:
                    raise ValueError(f"row {v} has bits beyond vertex {n - 1}")
                if (row >> v) & 1:
                    raise ValueError(f"self-loop at vertex {v}")
            for v, row in enumerate(rows):
                for u in _iter_bits(row):
                    if not (rows[u] >> v) & 1:
                        raise ValueError(f"adjacency not symmetric at ({v},{u})")
        # direct writes, not ``_set``: the search builds one Graph per test
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        return cls(n, [0] * n, _trusted=True)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)], _trusted=True)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if (rows[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, _trusted=True)

    # -- queries ------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        self._check_vertex(v)
        return _iter_bits(self.rows[v])

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            for d in _iter_bits(row):
                yield (u, u + 1 + d)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not (self.rows[u] >> v) & 1:
                    yield (u, v)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    # -- edits (return new graphs) ------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        return self._toggle(u, v, False)

    def remove_edge(self, u: int, v: int) -> "Graph":
        return self._toggle(u, v, True)

    def _toggle(self, u: int, v: int, present: bool) -> "Graph":
        """The graph with pair {u, v} flipped; ValueError unless u and v are
        distinct vertices in range and the edge's presence is ``present``."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if (self.rows[u] >> v) & 1 != present:
            raise ValueError(f"edge ({u},{v}) not present: cannot remove an absent edge"
                             if present else
                             f"edge ({u},{v}) already present: cannot add an existing edge")
        rows = list(self.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return Graph(self.n, rows, _trusted=True)

    def complement(self) -> "Graph":
        n = self.n
        full = (1 << n) - 1
        return Graph(n, [(full ^ (1 << v)) & ~self.rows[v] for v in range(n)], _trusted=True)

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Graph with vertex ``v`` renamed to ``perm[v]``."""
        n = self.n
        if len(perm) != n or set(perm) != set(range(n)):
            raise ValueError("relabel requires a permutation of 0..n-1")
        rows = [0] * n
        for v in range(n):
            pv = perm[v]
            acc = 0
            for u in _iter_bits(self.rows[v]):
                acc |= 1 << perm[u]
            rows[pv] = acc
        return Graph(n, rows, _trusted=True)

    # -- dunder -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- binary constructors ----------------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Block-diagonal union; ``g``'s vertices first, then ``h``'s."""
    n = g.n + h.n
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(n, rows, _trusted=True)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [r | hmask for r in g.rows]
    rows += [(r << g.n) | gmask for r in h.rows]
    return Graph(g.n + h.n, rows, _trusted=True)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; vertex ``(i, j)`` gets index ``i * h.n + j``."""
    n = g.n * h.n
    rows = [0] * n
    for i in range(g.n):
        base = i * h.n
        for j in range(h.n):
            acc = 0
            for l in _iter_bits(h.rows[j]):
                acc |= 1 << (base + l)
            for k in _iter_bits(g.rows[i]):
                acc |= 1 << (k * h.n + j)
            rows[base + j] = acc
    return Graph(n, rows, _trusted=True)


# -- distances --------------------------------------------------------


def bfs_distances(g: Graph, source: int) -> list[float]:
    """Distances from ``source`` to every vertex (``math.inf`` if unreachable)."""
    g._check_vertex(source)
    dist: list[float] = [math.inf] * g.n
    frontier = 1 << source
    seen = frontier
    d = 0
    rows = g.rows
    while frontier:
        for v in _iter_bits(frontier):
            dist[v] = d
        nxt = 0
        for v in _iter_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return dist


def distance(g: Graph, u: int, v: int) -> float:
    """BFS distance between ``u`` and ``v``; ``math.inf`` when disconnected."""
    g._check_vertex(v)
    return bfs_distances(g, u)[v]


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return all(d < math.inf for d in bfs_distances(g, 0))


# -- graph6 -----------------------------------------------------------


def triangle_bits(rows, order) -> int:
    """Upper-triangle adjacency bits x(0,1), x(0,2), x(1,2), ... as one int,
    of the graph relabelled so that vertex ``order[j]`` gets label j.

    The first bit of the stream is the most significant bit of the result,
    with fixed width n(n-1)/2, so integer order equals bitstring order.
    Vertex v holds bit ``n-1-label(v)``, so the relabelled row of label j
    keeps the bits of labels below j in its top j bits, in column order:
    O(n + m) work.
    """
    n = len(order)
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << (n - 1 - i)
    acc = 0
    for j, v in enumerate(order):
        row = 0
        r = rows[v]
        while r:
            b = r & -r
            row |= bit[b.bit_length() - 1]
            r ^= b
        acc = (acc << j) | (row >> (n - j))
    return acc


def pack_triangle_bits(n: int, bits: int) -> bytes:
    """graph6 bytes for an ``n``-vertex graph given its triangle bit stream."""
    if n < 0 or n > GRAPH6_MAX_N:
        raise Graph6Error(f"vertex count {n} outside supported graph6 range")
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    nbits = n * (n - 1) // 2
    pad = (-nbits) % 6
    bits <<= pad
    for shift in range(nbits + pad - 6, -1, -6):
        out.append(((bits >> shift) & 63) + 63)
    return bytes(out)


def to_graph6(g: Graph) -> bytes:
    return pack_triangle_bits(g.n, triangle_bits(g.rows, range(g.n)))


def from_graph6(data: bytes | str) -> Graph:
    """Decode standard graph6 bytes (optionally prefixed with '>>graph6<<')."""
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise Graph6Error("empty graph6 input")
    if any(b < 63 or b > 126 for b in data):
        raise Graph6Error("graph6 byte outside printable range 63..126")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte graph6 size field (n > 258047) not supported")
        if len(data) < 4:
            raise Graph6Error("malformed graph6 size field")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error(f"graph6 body truncated: need {nbytes} bytes, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error("trailing garbage after graph6 body")
    bits = 0
    for b in body:
        bits = (bits << 6) | (b - 63)
    pad = nbytes * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("padding bits beyond the adjacency triangle are set")
    bits >>= pad
    rows = [0] * n
    pos = nbits
    for v in range(1, n):
        for u in range(v):
            pos -= 1
            if (bits >> pos) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows, _trusted=True)


# -- edge-list text format ---------------------------------------------


def to_edge_list(g: Graph) -> str:
    """Text form: first line ``n``, then one 0-based ``u v`` pair per line."""
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    tokens_by_line = [line.split() for line in text.splitlines()]
    tokens_by_line = [t for t in tokens_by_line if t]
    if not tokens_by_line:
        raise ValueError("empty edge-list input")
    head = tokens_by_line[0]
    if len(head) != 1:
        raise ValueError("first edge-list line must be the vertex count")
    try:
        n = int(head[0])
    except ValueError:
        raise ValueError(f"bad vertex count {head[0]!r}") from None
    if n > GRAPH6_MAX_N:
        # every ai/aut report echoes its input as graph6
        raise ValueError(f"vertex count {n} above the graph6 limit {GRAPH6_MAX_N}")
    edges = []
    for toks in tokens_by_line[1:]:
        if len(toks) != 2:
            raise ValueError(f"bad edge line {' '.join(toks)!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ValueError(f"bad edge line {' '.join(toks)!r}") from None
        edges.append((u, v))
    return Graph.from_edges(n, edges)
