"""Census oracle: breadth-first search over isomorphism classes.

Each class of graphs on n vertices links to the classes of its one-flip
graphs.  A multi-source BFS from the asymmetric classes gives each
class's distance, and that distance is ai in mixed mode: a path of k
flips gives a flip set of at most k pairs, and a flip set of k pairs
gives such a path.  Remove-only distances walk back from the asymmetric
classes along additions, and add-only distances along removals.  The
BFS uses only class enumeration, canonical forms and the asymmetry test,
so it shares no code with the search's flip layers.  The same class graph,
walked from one class, gives the distances that the search's layers must
reach.
"""

from collections import Counter
from functools import cache
from math import comb

import pytest

from asymindex.automorphism import canonical_form, is_asymmetric
from asymindex.enumeration import nonisomorphic_graphs
from asymindex.search import BudgetExceededError, asymmetric_index

from conftest import rebuilt_child, whole_layers


@cache
def _flip_classes(n: int) -> dict:
    """Canonical form of each class -> (graph, forms one addition away,
    forms one removal away)."""
    classes = {}
    for g in nonisomorphic_graphs(n):
        added, removed = set(), set()
        for u in range(n):
            for v in range(u + 1, n):
                if g.has_edge(u, v):
                    removed.add(canonical_form(g.remove_edge(u, v)))
                else:
                    added.add(canonical_form(g.add_edge(u, v)))
        classes[canonical_form(g)] = (g, added, removed)
    return classes


#: Where a BFS step back towards a class may go, by search mode.
_STEPS = {"mixed": lambda added, removed: added | removed,
          "remove-only": lambda added, removed: added,
          "add-only": lambda added, removed: removed}

#: Where a search step from a class may go, by search mode.
_FORWARD = {"mixed": _STEPS["mixed"], "remove-only": _STEPS["add-only"],
            "add-only": _STEPS["remove-only"]}


def _bfs(classes: dict, sources, step) -> dict:
    """Distance of each class reached from ``sources`` along ``step``."""
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    while frontier:
        following = []
        for c in frontier:
            for d in step(*classes[c][1:]):
                if d not in dist:
                    dist[d] = dist[c] + 1
                    following.append(d)
        frontier = following
    return dist


def _distances(classes: dict, mode: str) -> dict:
    """Each class's distance to the asymmetric classes: ai in ``mode``."""
    return _bfs(classes, [c for c, (g, _, _) in classes.items() if is_asymmetric(g)],
                _STEPS[mode])


@pytest.mark.parametrize("n,mode,counts,unreached", [
    (6, "mixed", [8, 58, 54, 26, 6, 2, 2], 0),
    (6, "remove-only", [8, 35, 22, 9, 2, 1, 1], 78),
    (6, "add-only", [8, 35, 22, 9, 2, 1, 1], 78),
    (7, "mixed", [152, 570, 244, 60, 12, 4, 2], 0),
    (7, "remove-only", [152, 448, 208, 62, 13, 3, 2], 156),
    (7, "add-only", [152, 448, 208, 62, 13, 3, 2], 156),
    pytest.param(8, "mixed", [3696, 6642, 1674, 274, 44, 12, 4], 0,
                 marks=pytest.mark.slow)])
def test_bfs_census_matches_search(n, mode, counts, unreached):
    classes = _flip_classes(n)
    dist = _distances(classes, mode)
    census = Counter(dist.values())
    assert [census[k] for k in range(len(census))] == counts
    assert len(classes) - len(dist) == unreached
    for c, (g, _, _) in classes.items():
        if c in dist:
            assert asymmetric_index(g, mode, max_k=comb(n, 2)).value == dist[c]
        else:
            with pytest.raises(BudgetExceededError) as exc:
                asymmetric_index(g, mode, max_k=comb(n, 2))
            assert exc.value.universe_exhausted


@pytest.mark.parametrize("mode", ["mixed", "remove-only", "add-only"])
def test_layers_reach_each_class_at_its_distance(mode):
    # from every 6-vertex class, up to its ai (or through every class it
    # reaches when none is asymmetric): layer k holds every class at
    # distance exactly k, and any other class in it is at distance k - 2
    # and symmetric
    classes = _flip_classes(6)
    ai = _distances(classes, mode)
    for c, (g, _, _) in classes.items():
        dist = _bfs(classes, [c], _FORWARD[mode])
        max_k = ai[c] if c in ai else max(dist.values())
        for k, children in whole_layers(g, max_k, mode):
            assert all(len(s) == k for s, _ in children)
            reached = {canonical_form(rebuilt_child(g, c)) for c in children}
            exact = {d for d, j in dist.items() if j == k}
            assert exact <= reached, (c, k)
            assert all(dist[d] == k - 2 and ai.get(d) != 0 for d in reached - exact)
