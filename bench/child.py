"""One benchmark pass in a fresh interpreter.

Usage: child.py KIND WORKLOAD

KIND is ``setup`` (import only), ``plain`` (one pass of WORKLOAD, with
the speed probe), ``traced`` (the same pass with the tracer installed) or
``claims`` (the ledger's catalog, one ``claims.verify`` call per entry).
The child prints ``ready`` once ``asymindex.cli`` is imported, which ends
set-up; it then reads the workload's inputs as JSON on stdin and prints
one JSON result line.  Answers are checked by the parent, not here.
"""

import sys

import asymindex.cli

print("ready", flush=True)

import hashlib  # noqa: E402  (imports after the set-up mark are not set-up)
import io
import json
import resource
import signal
import traceback
from contextlib import redirect_stdout
from time import perf_counter

import asymindex  # noqa: E402
from asymindex import automorphism, claims, enumeration, search  # noqa: E402

from checks import CLAIM_IDS, CLASS_N  # noqa: E402
from tracer import Tracer  # noqa: E402

#: How often the speed probe samples during a plain pass.
PROBE_INTERVAL_S = 0.05
_ROTATE = (1, 2, 3, 4, 5, 6, 7, 8, 0)


def _probe_loop() -> int:
    """A fixed mix of the package's kinds of interpreter work, about 1.5 ms:
    int bit operations with dict updates, then small tuples into a set.
    The first alone tracks the engine's slowdowns, the second the group
    closure's; ``index`` needs both."""
    acc, seen = 0, {}
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFFFFFFFFFF
        acc ^= (x | (x << 9)).bit_count()
        seen[x & 255] = (i, acc)
    p, images = tuple(range(9)), set()
    for i in range(400):
        p = tuple(p[j] for j in _ROTATE)
        images.add((p, i & 63))
    return acc + len(images)


def timed(fn, probe: bool):
    """Run ``fn()``; return (result, seconds, mean probe-loop seconds).

    With ``probe``, a SIGALRM handler times ``_probe_loop`` every
    PROBE_INTERVAL_S while ``fn`` runs: on the same CPU, in the same
    spells of host contention that slow a shared machine by up to 1.7x
    for tens of seconds.  The seconds returned exclude the probe's own.
    """
    samples: list[float] = []

    def tick(signum, frame):
        t = perf_counter()
        _probe_loop()
        samples.append(perf_counter() - t)

    if probe:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = perf_counter()
    try:
        result = fn()
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - t0 - sum(samples)
    if probe and not samples:
        tick(None, None)  # too short to be sampled: probe right after
    probe_s = sum(samples) / len(samples) if samples else None
    return result, wall, probe_s


def _digest(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()[:20]


def run_ledger(inputs: dict, probe: bool) -> dict:
    buf = io.StringIO()

    def suite():
        with redirect_stdout(buf):
            return asymindex.cli.main(["verify", "suite", "--json"])

    code, wall, probe_s = timed(suite, probe)
    out = {"wall_s": wall, "probe_s": probe_s, "exit": code, "rows": None,
           "digests": []}
    if code in (0, 5):  # the exit codes that come with a ledger
        rows = json.loads(buf.getvalue())["result"]["rows"]
        out["rows"] = [[r["claim"], r["status"], r["allowlist_key"]] for r in rows]
        out["digests"] = sorted(_digest(r) for r in rows
                                if r["claim"] != "Thm1.2-sweep")
    return out


def run_index(inputs: dict, probe: bool) -> dict:
    graphs = [asymindex.Graph.from_edges(c["n"], [tuple(e) for e in c["edges"]])
              for c in inputs["cases"]]
    outcomes, case_s = [], {}

    def cases():
        for case, g in zip(inputs["cases"], graphs):
            t = perf_counter()
            try:
                res = search.asymmetric_index(g, mode=case["mode"],
                                              max_k=case["max_k"])
                outcome = {"value": res.value,
                           "witnesses": [w.as_dict() for w in res.witnesses]}
            except search.BudgetExceededError as exc:
                outcome = {"budget": exc.lower_bound}
            except Exception:  # a crashing case counts as failed; the rest run
                traceback.print_exc()
                outcome = {"error": True}
            case_s[case["name"]] = perf_counter() - t
            outcomes.append(outcome)

    _, wall, probe_s = timed(cases, probe)
    return {"wall_s": wall, "probe_s": probe_s, "outcomes": outcomes,
            "case_s": case_s}


def run_classes(inputs: dict, probe: bool) -> dict:
    perms = inputs["perms"]

    def classes():
        reps = enumeration.nonisomorphic_graphs(CLASS_N)
        asym = enumeration.asymmetric_graphs(CLASS_N)
        orders = [automorphism.automorphism_group(g).order for g in reps]
        canon = []
        for i, g in enumerate(reps):
            p = perms[i % len(perms)]
            h = asymindex.Graph.from_edges(g.n, [(p[u], p[v]) for u, v in g.edges()])
            canon.append(automorphism.canonical_form(h))
        return reps, len(asym), orders, canon

    (reps, asym, orders, canon), wall, probe_s = timed(classes, probe)
    return {"wall_s": wall, "probe_s": probe_s, "orders": orders,
            "asymmetric": asym, "canon": [c.decode("ascii") for c in canon],
            "reps": reps}


def run_claims(inputs: dict, probe: bool) -> dict:
    claim_s, digests = {}, []
    for claim_id in CLAIM_IDS:
        rows, claim_s[claim_id], _ = timed(lambda: claims.verify(claim_id), probe)
        digests += [_digest(r.to_dict()) for r in rows]
    return {"wall_s": sum(claim_s.values()), "claim_s": claim_s,
            "digests": sorted(digests)}


RUNNERS = {"ledger": run_ledger, "index": run_index, "classes": run_classes}


def main() -> None:
    kind, workload = sys.argv[1], sys.argv[2]
    if kind == "setup":
        print(json.dumps({"module": asymindex.__file__}))
        return
    inputs = json.loads(sys.stdin.read())
    tracer = None
    if kind == "traced":
        tracer = Tracer()
        tracer.install()
    runner = run_claims if kind == "claims" else RUNNERS[workload]
    out = runner(inputs, probe=kind == "plain")
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["test_calls"] = tracer.count["test_calls"]
    if "reps" in out:
        # Representatives' forms for the invariance check; after the
        # snapshot above, so they stay out of the traced counts.
        out["reps"] = [automorphism.canonical_form(g).decode("ascii")
                       for g in out["reps"]]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
