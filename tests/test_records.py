"""The package's records behave as values: a copy, a deep copy and a
pickle round trip give an equal object, equality compares the fields,
the frozen records hash by value and refuse assignment, and the mutable
ones are unhashable."""

import copy
import pickle

import pytest

from asymindex import (AiResult, ClaimReport, FamilySpec, FlipSet, Graph,
                       automorphism_group, cycle)
from asymindex.search import SearchStats


def ai_result(value: int) -> AiResult:
    return AiResult(value, [FlipSet(added=[(2, 0)])], "add-only", SearchStats(4, 2, 1))


def claim_report(ai: int) -> ClaimReport:
    return ClaimReport("Thm2.2", {"n": 6}, "ai(C_n) = 2", {"ai": ai}, "confirmed",
                       {"note": "x"}, ai=ai, vertices=6)


# (factory of an instance, an unequal instance, a field a frozen record
# refuses to have assigned, or None for a mutable record)
RECORDS = {
    "Graph": (lambda: Graph.complete(3), Graph.complete(4), "n"),
    "FlipSet": (lambda: FlipSet(removed=[(1, 0)], added=[(2, 3)]),
                FlipSet(removed=[(1, 0)]), "removed"),
    "AutReport": (lambda: automorphism_group(cycle(5)), automorphism_group(cycle(6)),
                  "order"),
    "FamilySpec": (lambda: FamilySpec.parse("circulant:17:1,4"),
                   FamilySpec.parse("circulant:17:1,3"), "args"),
    "SearchStats": (lambda: SearchStats(5, 3, 1), SearchStats(5, 3, 0), None),
    "AiResult": (lambda: ai_result(2), ai_result(3), None),
    "ClaimReport": (lambda: claim_report(2), claim_report(3), None),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_value(name):
    make, other, frozen_field = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and a != other
    assert type(a).__name__ == name
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a
    if frozen_field is None:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, frozen_field, getattr(b, frozen_field))

