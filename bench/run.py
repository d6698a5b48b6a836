"""asymindex benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload {ledger,index,classes} --seed N \\
        --seconds S --trace {0,1}

Every pass runs in a fresh single-threaded interpreter (``child.py``) with
``src`` on its path, one pass at a time, so module caches never carry over.
``--trace 0`` repeats passes while another fits in S seconds (at least
one) and reports set-up time, wall time at reference speed and peak RSS
as medians.  ``--trace 1`` runs one plain pass, one pass
with the tracer installed (and, for the ledger, the catalog claim by
claim) and reports the per-layer metrics.  Answers are checked against
pinned oracles in ``checks.py``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import inputs
import selfcheck

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("ledger", "index", "classes")
LAYERS = ("graph", "families", "automorphism", "search", "enumeration",
          "claims", "cli")
#: Fresh interpreters timed through ``import asymindex.cli`` before and
#: again after the passes, on top of the one each pass starts.
SETUP_SAMPLES = 3
#: Every child is killed once the run has taken this long.
DEADLINE_S = 170.0
#: Probe-loop seconds that define the reference speed for ``wall_ref_s``:
#: between the loop's best (1.0 ms) and median (1.4 ms) times on the 2-vCPU
#: 2.1 GHz VM where the benchmark was defined.
PROBE_REF_S = 0.0012


class BenchError(Exception):
    pass


def _child_env() -> dict:
    # Bytecode caching stays on, as for an installed package, so that
    # set-up time does not depend on an inherited PYTHONDONTWRITEBYTECODE.
    drop = ("ASYMINDEX_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(kind: str, workload: str, payload, deadline: float) -> tuple[float, dict]:
    """Start one child, return (set-up seconds, its result object)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), kind, workload],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, env=_child_env(), text=True)
    watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() == "ready" and payload is not None:
            proc.stdin.write(json.dumps(payload))
        proc.stdin.close()
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"{kind} child for {workload} failed "
                         f"(exit {proc.returncode})")
    return setup, json.loads(out.strip().splitlines()[-1])


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "index":
        return {"cases": inputs.index_inputs(seed)}
    if workload == "classes":
        return {"perms": inputs.class_perms(seed)}
    return {}


def check(workload: str, payload: dict, res: dict) -> tuple[int, int]:
    """(operations attempted, operations failed) for one pass."""
    if workload == "ledger":
        rows = res["rows"] and [{"claim": c, "status": s, "allowlist_key": k}
                                for c, s, k in res["rows"]]
        return checks.check_ledger(res["exit"], rows)
    if workload == "index":
        cases = payload["cases"]
        spec = {checks.case_name(s, m): e for s, m, _, e in checks.INDEX_CASES}
        failed = sum(not checks.check_index_case(c["n"], c["edges"], c["mode"],
                                                 spec[c["name"]], o)
                     for c, o in zip(cases, res["outcomes"]))
        return len(cases), failed + len(cases) - len(res["outcomes"])
    return checks.check_classes(res["orders"], res["asymmetric"],
                                list(zip(res["reps"], res["canon"])))


def end_to_end(workload: str, payload: dict, seconds: float, deadline: float):
    def setup_samples():
        return [run_child("setup", workload, None, deadline)[0]
                for _ in range(SETUP_SAMPLES)]

    # Set-up is sampled before and after the passes, so that a slow spell
    # of the machine does not fall on every sample.
    setups = setup_samples()
    wall_refs, rss = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        setup, res = run_child("plain", workload, payload, deadline)
        setups.append(setup)
        wall_refs.append(res["wall_s"] * PROBE_REF_S / res["probe_s"])
        rss.append(res["rss_mb"])
        a, f = check(workload, payload, res)
        attempted, failed = attempted + a, failed + f
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break  # another pass would overrun the measuring time
    setups += setup_samples()
    print(f"bench: {workload}: {len(wall_refs)} passes, wall_ref_s {wall_refs}, "
          f"setup_s {[round(s, 4) for s in setups]}", file=sys.stderr)
    metrics = {"setup_s": statistics.median(setups),
               "wall_ref_s": statistics.median(wall_refs),
               "peak_rss_mb": statistics.median(rss)}
    return metrics, attempted, failed


def per_layer(workload: str, payload: dict, deadline: float):
    _, plain = run_child("plain", workload, payload, deadline)
    _, traced = run_child("traced", workload, payload, deadline)
    attempted = failed = 0
    for res in (plain, traced):
        a, f = check(workload, payload, res)
        attempted, failed = attempted + a, failed + f
    metrics = dict(traced["layers"])
    metrics["wall_s"] = plain["wall_s"]
    metrics["probe_loop_s"] = plain["probe_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]

    # Binding-site consistency: a wrapper missing at any import site would
    # make the traced counts fall short of what the program reports.
    consistency = []
    if metrics["search.asymmetric_index.calls"]:
        consistency.append(("is_asymmetric calls under asymmetric_index == "
                            "sum of SearchStats.tested",
                            traced["test_calls"] == metrics["search.tested"]))
    if workload in ("ledger", "classes"):
        consistency.append(("canonical_form calls of the 7-vertex enumeration "
                            "step == 156 * 2^6",
                            metrics["enumeration.canon_calls"]
                            == checks.CLASSES_BELOW * 2 ** (checks.CLASS_N - 1)))
    claim_s = {}
    if workload == "ledger":
        _, per_claim = run_child("claims", workload, payload, deadline)
        claim_s = per_claim["claim_s"]
        consistency.append(("rows of per-claim verify == suite rows minus the "
                            "sweep row", per_claim["digests"] == traced["digests"]))
    for what, ok in consistency:
        print(f"bench: trace check {'ok' if ok else 'FAILED'}: {what}",
              file=sys.stderr)
    attempted += len(consistency)
    failed += sum(not ok for _, ok in consistency)

    for claim_id in checks.CLAIM_IDS:
        metrics[f"claims.{claim_id}.s"] = claim_s.get(claim_id, 0.0)
    case_s = traced.get("case_s", {})
    for spec, mode, _, _ in checks.INDEX_CASES:
        name = checks.case_name(spec, mode)
        metrics[f"search.case.{name}.s"] = case_s.get(name, 0.0)
    for layer in LAYERS:
        text = (SRC / "asymindex" / f"{layer}.py").read_text(encoding="utf-8")
        metrics[f"{layer}.src_lines"] = len(text.splitlines())
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    if not (SRC / "asymindex" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'asymindex'}")
    selfcheck.run(args.workload)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    # The first child writes the bytecode cache and proves that the
    # package comes from this checkout; it is not timed.
    _, info = run_child("setup", args.workload, None, deadline)
    if Path(info["module"]).resolve() != (SRC / "asymindex" / "__init__.py").resolve():
        raise BenchError(f"asymindex imported from {info['module']}, not {SRC}")

    payload = make_inputs(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed = per_layer(args.workload, payload, deadline)
    else:
        metrics, attempted, failed = end_to_end(args.workload, payload,
                                                args.seconds, deadline)
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(names - set(metrics))}, extra "
                         f"{sorted(set(metrics) - names)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, selfcheck.SelfCheckError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        sys.exit(1)
