"""Self-check of the answer checkers: a right answer must pass and a
deliberately wrong one must count as failed.

``run.py`` calls ``run(workload)`` before every run; ``python3
bench/selfcheck.py`` checks all three workloads.  No package code runs.
"""

from __future__ import annotations

import sys

import checks
from inputs import family_edges


class SelfCheckError(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise SelfCheckError(f"self-check failed: {what}")


def _ledger() -> None:
    rows = [{"claim": claim, "status": status,
             "allowlist_key": checks.LEDGER_REFUTED_KEY.get(claim)
             if status == "refuted" else None}
            for claim, by in checks.LEDGER_STATUS.items()
            for status, count in by.items() for _ in range(count)]
    _expect(checks.check_ledger(0, rows) == (checks.LEDGER_ROWS, 0),
            "ledger: the pinned answer passes")
    wrong = [dict(r) for r in rows]
    flipped = next(r for r in wrong if r["claim"] == "Thm2.2")
    flipped["status"] = "refuted"
    _expect(checks.check_ledger(0, wrong)[1] >= 1,
            "ledger: a confirmed row turned refuted fails")
    _expect(checks.check_ledger(0, rows[:-1])[1] >= 1,
            "ledger: a missing row fails")
    _expect(checks.check_ledger(5, rows)[1] == checks.LEDGER_ROWS,
            "ledger: a nonzero exit fails every row")


def _index() -> None:
    n, edges = family_edges("path:12")
    chord = {"removed": [], "added": [[1, 3]]}   # Thm2.1's witness
    _expect(checks.check_index_case(n, edges, "mixed", 1,
                                    {"value": 1, "witnesses": [chord]}),
            "index: the chord (1,3) on P_12 passes")
    twins = {"removed": [], "added": [[0, 2]]}   # 0 and 1 become twins
    _expect(not checks.check_index_case(n, edges, "mixed", 1,
                                        {"value": 1, "witnesses": [twins]}),
            "index: a witness leaving an automorphism fails")
    _expect(not checks.check_index_case(n, edges, "mixed", 1,
                                        {"value": 2, "witnesses": [chord]}),
            "index: a wrong value fails")
    _expect(not checks.check_index_case(n, edges, "remove-only", 1,
                                        {"value": 1, "witnesses": [chord]}),
            "index: an addition in remove-only mode fails")
    n, edges = family_edges("cycle:12")
    _expect(not checks.check_index_case(n, edges, "remove-only", ("budget", 9),
                                        {"budget": 8}),
            "index: a wrong proven lower bound fails")


def _classes() -> None:
    # Group orders with the right count, 152 ones and the orbit sum
    # 152*5040 + 528*2520 + 148*2 + 216*1 = 2^21.
    orders = [1] * 152 + [2] * 528 + [2520] * 148 + [5040] * 216
    pairs = [(f"g{i}", f"g{i}") for i in range(checks.CLASSES)]
    ok = checks.check_classes(orders, checks.ASYMMETRIC_CLASSES, pairs)
    _expect(ok == (checks.CLASSES + 3, 0), "classes: a consistent answer passes")
    bad_pairs = pairs[:-1] + [("g0", "g1")]
    _expect(checks.check_classes(orders, checks.ASYMMETRIC_CLASSES, bad_pairs)[1] == 1,
            "classes: one relabelled form differing from its class fails")
    _expect(checks.check_classes(orders[:-1] + [2520], checks.ASYMMETRIC_CLASSES,
                                 pairs)[1] == 1,
            "classes: a wrong group order breaks the orbit count")
    _expect(checks.check_classes(orders, 151, pairs)[1] == 1,
            "classes: a wrong asymmetric count fails")


CHECKS = {"ledger": _ledger, "index": _index, "classes": _classes}


def run(workload: str) -> None:
    CHECKS[workload]()


if __name__ == "__main__":
    try:
        for name in CHECKS:
            run(name)
            print(f"{name}: wrong answers are counted as failed")
    except SelfCheckError as exc:
        sys.exit(str(exc))
