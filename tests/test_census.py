"""Census oracle: breadth-first search over isomorphism classes.

Each class of graphs on n vertices links to the classes of its one-flip
graphs.  A multi-source BFS from the asymmetric classes gives each
class's distance, and that distance is ai in mixed mode: a path of k
flips gives a flip set of at most k pairs, and a flip set of k pairs
gives such a path.  Remove-only distances walk back from the asymmetric
classes along additions, and add-only distances along removals.  The
BFS uses only class enumeration, canonical forms and the asymmetry test,
so it shares no code with the search's flip layers.
"""

from collections import Counter
from functools import cache
from math import comb

import pytest

from asymindex.automorphism import canonical_form, is_asymmetric
from asymindex.enumeration import nonisomorphic_graphs
from asymindex.search import BudgetExceededError, asymmetric_index


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


#: Where a BFS step from a class may go, by search mode.
_STEPS = {"mixed": lambda added, removed: added | removed,
          "remove-only": lambda added, removed: added,
          "add-only": lambda added, removed: removed}


def _distances(classes: dict, mode: str) -> dict:
    dist = {c: 0 for c, (g, _, _) in classes.items() if is_asymmetric(g)}
    frontier = list(dist)
    while frontier:
        following = []
        for c in frontier:
            for d in _STEPS[mode](*classes[c][1:]):
                if d not in dist:
                    dist[d] = dist[c] + 1
                    following.append(d)
        frontier = following
    return dist


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
