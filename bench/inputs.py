"""Seeded benchmark inputs, built without the package under test.

Family graphs are generated here from their definitions so that the
program only ever sees the generated edge lists; the seed picks the
vertex relabelling.
"""

from __future__ import annotations

import random

from checks import CLASS_N, CLASSES, INDEX_CASES, case_name


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _box(n1, e1, n2, e2) -> tuple[int, list[tuple[int, int]]]:
    """Cartesian product; vertex (i, j) is i*n2 + j."""
    edges = [(i * n2 + j, k * n2 + j) for i, k in e1 for j in range(n2)]
    edges += [(i * n2 + j, i * n2 + k) for i in range(n1) for j, k in e2]
    return n1 * n2, edges


def family_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) for a family spec in the CLI grammar."""
    kind, _, rest = spec.partition(":")
    if kind == "circulant":
        m, _, dists = rest.partition(":")
        m = int(m)
        return m, sorted({tuple(sorted((v, (v + int(d)) % m)))
                          for v in range(m) for d in dists.split(",")})
    if kind in ("grid", "pxc", "torus"):
        r, s = (int(x) for x in rest.split("x"))
        first = _cycle(r) if kind == "torus" else _path(r)
        second = _path(s) if kind == "grid" else _cycle(s)
        return _box(r, first, s, second)
    n = int(rest)
    if kind == "star":
        return n, [(0, v) for v in range(1, n)]
    if kind == "complete":
        return n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "cycle":
        return n, _cycle(n)
    if kind == "path":
        return n, _path(n)
    if kind == "wheel":
        return n, [(0, v) for v in range(1, n)] + [
            (1 + i, 1 + (i + 1) % (n - 1)) for i in range(n - 1)]
    raise ValueError(f"unknown family {spec!r}")


def index_inputs(seed: int) -> list[dict]:
    """Every index case under a seeded random vertex relabelling."""
    cases = []
    for spec, mode, max_k, expected in INDEX_CASES:
        name = case_name(spec, mode)
        n, edges = family_edges(spec)
        perm = list(range(n))
        random.Random(f"{seed}:{name}").shuffle(perm)
        cases.append({"name": name, "mode": mode, "max_k": max_k,
                      "expected": expected, "n": n,
                      "edges": [[perm[u], perm[v]] for u, v in edges]})
    return cases


def class_perms(seed: int) -> list[list[int]]:
    """One seeded relabelling per 7-vertex class."""
    rng = random.Random(f"{seed}:classes")
    perms = []
    for _ in range(CLASSES):
        perm = list(range(CLASS_N))
        rng.shuffle(perm)
        perms.append(perm)
    return perms
