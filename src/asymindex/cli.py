"""Command-line surface: generation, asymmetry reports, index search,
chord-pair counting, and the claim-verification ledger.

Exit codes are part of the contract so CI can consume the tool:
0 success, 2 usage or parse error, 3 no asymmetrization exists,
4 search budget exceeded, 5 refutation outside the allowlist.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .graph import Graph, Graph6Error, from_edge_list, from_graph6, to_graph6
from .automorphism import automorphism_group, cycles_str
from .families import FamilySpec, generate, cycle
from .search import (DEFAULT_WITNESS_CAP, MODES, BudgetExceededError,
                     NoAsymmetrizationError, asymmetric_index,
                     count_nonisomorphic_asymmetrizations)
from . import claims as claims_mod

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_ASYMMETRIZATION = 3
EXIT_BUDGET = 4
EXIT_REFUTED = 5


class _CliError(Exception):
    pass


def _envelope(command: str, input_text: str, result: dict, stats: dict) -> str:
    return json.dumps({"command": command, "input": input_text,
                       "result": result, "stats": stats,
                       "version": __version__}, sort_keys=True)


def _read_graph(text: str) -> Graph:
    """graph6 literal, '-' for graph6 on stdin, or @file with an edge list.

    A bare '@' (blanks aside) is graph6 for K_1, not a file name.
    """
    if text == "-":
        return from_graph6(sys.stdin.read().strip())
    if text.startswith("@") and text[1:].strip():
        try:
            with open(text[1:], "r", encoding="ascii") as fh:
                return from_edge_list(fh.read())
        except OSError as exc:
            raise _CliError(f"cannot read edge list: {exc}") from exc
    return from_graph6(text)


def _load_config(path: str | None) -> dict:
    """key=value lines; '#' starts a comment.

    Recognized keys: max_k (int), witness_cap (int), allowlist
    (comma-separated claim keys).
    """
    if path is None:
        return {}
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise _CliError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise _CliError(f"config line {lineno}: expected key=value")
        if key in ("max_k", "witness_cap"):
            try:
                out[key] = int(value)
            except ValueError:
                raise _CliError(f"config line {lineno}: {key} must be an integer") from None
        elif key == "allowlist":
            out[key] = tuple(tok.strip() for tok in value.split(",") if tok.strip())
        else:
            raise _CliError(f"config line {lineno}: unknown key {key!r}")
    return out


# -- subcommands ------------------------------------------------------------


def _cmd_gen(args, config) -> int:
    spec = FamilySpec.parse(args.spec)
    print(to_graph6(generate(spec)).decode())
    return EXIT_OK


def _cmd_ai(args, config) -> int:
    g = _read_graph(args.graph)
    base = 1 if args.one_based else 0
    max_k = args.max_k if args.max_k is not None else config.get("max_k")
    cap = (args.witnesses if args.witnesses is not None
           else config.get("witness_cap", DEFAULT_WITNESS_CAP))
    code, stats = EXIT_OK, {}
    try:
        res = asymmetric_index(g, mode=args.mode, max_k=max_k, witness_cap=cap)
        result = {"status": "ok", "value": res.value,
                  "witnesses": [w.as_dict(base) for w in res.witnesses]}
        stats = res.stats.as_dict()
    except NoAsymmetrizationError as exc:
        code, message = EXIT_NO_ASYMMETRIZATION, f"no asymmetrization: {exc}"
        result = {"status": "no-asymmetrization", "n": exc.n}
    except BudgetExceededError as exc:
        code, message = EXIT_BUDGET, f"budget exceeded: {exc}"
        result = {"status": "budget-exceeded", "proven_lower_bound": exc.lower_bound,
                  "universe_exhausted": exc.universe_exhausted}
        stats = exc.stats.as_dict()
    except RecursionError:
        # too deep for the tree search (see main); nothing is proven before
        # the first asymmetry test finishes, so the bound is 0
        if not args.json:
            raise
        code = EXIT_BUDGET
        result = {"status": "budget-exceeded", "proven_lower_bound": 0,
                  "universe_exhausted": False}
    if args.json:
        result.update(mode=args.mode, label_base=base)
        print(_envelope("ai", to_graph6(g).decode(), result, stats))
    elif code != EXIT_OK:
        print(message, file=sys.stderr)
    else:
        print(f"ai = {result['value']}  (mode {args.mode})")
        for w in result["witnesses"]:
            rem, add = (" ".join(f"{u}-{v}" for u, v in w[side]) or "-"
                        for side in ("removed", "added"))
            print(f"witness: remove [{rem}] add [{add}]")
        print(f"stats: {stats['nodes']} candidates, {stats['tested']} tested, "
              f"{stats['dedup_hits']} repeated classes")
    return code


def _cmd_aut(args, config) -> int:
    g = _read_graph(args.graph)
    base = 1 if args.one_based else 0
    rep = automorphism_group(g)
    orbits = [[v + base for v in orbit] for orbit in rep.orbits]
    gens = [cycles_str(p, base) for p in rep.generators]
    if args.json:
        payload = {"is_asymmetric": rep.is_asymmetric, "order": str(rep.order),
                   "generators": gens, "orbits": orbits, "label_base": base}
        print(_envelope("aut", to_graph6(g).decode(), payload, {}))
    else:
        print(f"asymmetric: {rep.is_asymmetric}")
        print(f"group order: {rep.order}")
        print(f"generators: {' '.join(gens) if gens else '(none)'}")
        print("orbits: " + " ".join("{" + ",".join(map(str, o)) + "}" for o in orbits))
    return EXIT_OK


def _cmd_count_cycle_aug(args, config) -> int:
    n = args.n
    if n < 6:
        raise _CliError("cycle augmentation counting needs n >= 6")
    oracle = count_nonisomorphic_asymmetrizations(cycle(n), 0, 2)
    text_value = claims_mod.cycle_augmentation_formula(n, "text")
    remark_value = claims_mod.cycle_augmentation_formula(n, "remark")
    result = {"n": n, "enumerated": oracle,
              "text_formula": text_value, "text_matches": text_value == oracle,
              "remark_formula": remark_value,
              "remark_matches": remark_value == oracle}
    if args.json:
        print(_envelope("count-cycle-aug", str(n), result, {}))
    else:
        print(f"n={n}: enumerated {oracle} asymmetrizing chord pairs")
        print(f"text formula:   {text_value}  "
              f"({'match' if result['text_matches'] else 'MISMATCH'})")
        print(f"remark formula: {remark_value}  "
              f"({'match' if result['remark_matches'] else 'MISMATCH'})")
    return EXIT_OK


def _parse_range(text: str):
    lo, sep, hi = text.partition("..")
    try:
        return (int(lo), int(hi)) if sep else int(lo)
    except ValueError:
        raise _CliError(f"bad range {text!r}; expected N or LO..HI") from None


def _cmd_verify(args, config) -> int:
    allowlist = config.get("allowlist", claims_mod.DEFAULT_ALLOWLIST)
    params = {name: _parse_range(text) for name in ("n", "l", "i")
              if (text := getattr(args, name)) is not None}
    try:
        if args.claim == "suite":
            if params:
                raise ValueError("suite takes no parameters")
            rows = claims_mod.verify_suite(budget=args.budget)
        else:
            rows = claims_mod.verify(args.claim, budget=args.budget, **params)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    allowlisted = [r for r in rows
                   if r.status == claims_mod.REFUTED and r.allowlist_key in allowlist]
    offending = [r for r in rows
                 if r.status == claims_mod.REFUTED and r.allowlist_key not in allowlist]
    if args.json:
        payload = {"rows": [r.to_dict() for r in rows],
                   "allowlist": sorted(allowlist),
                   "allowlisted_refutations": len(allowlisted),
                   "unexpected_refutations": len(offending)}
        print(_envelope("verify", args.claim, payload,
                        {"rows": len(rows)}))
    else:
        for r in rows:
            mark = ""
            if r.status == claims_mod.REFUTED and r.allowlist_key in allowlist:
                mark = f"  [allowlisted: {r.allowlist_key}]"
            params_text = " ".join(f"{k}={v}" for k, v in sorted(r.params.items(),
                                                                 key=lambda kv: kv[0]))
            print(f"{r.claim_id:24s} {r.status:16s} {params_text}{mark}")
        print(f"{len(rows)} rows: "
              f"{sum(r.status == claims_mod.CONFIRMED for r in rows)} confirmed, "
              f"{sum(r.status == claims_mod.REFUTED for r in rows)} refuted "
              f"({len(allowlisted)} allowlisted), "
              f"{sum(r.status == claims_mod.BUDGET_EXCEEDED for r in rows)} "
              f"budget-exceeded, "
              f"{sum(r.status == claims_mod.NOT_APPLICABLE for r in rows)} "
              f"not-applicable")
    return EXIT_REFUTED if offending else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymindex",
        description="Asymmetric index toolkit: how many edge edits does a "
                    "graph need before only the identity automorphism survives?")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print the graph6 line of a family graph")
    p.add_argument("spec", help="family spec, e.g. path:9 cycle:12 wheel:9 "
                                "circulant:17:1,4 grid:3x4 pxc:3x5 torus:6x7 "
                                "split:8+3 pendant-cycle:4")
    p.set_defaults(func=_cmd_gen)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON envelope on stdout")
    common.add_argument("--one-based", action="store_true",
                        help="print vertex labels starting at 1")
    common.add_argument("--config", metavar="FILE",
                        help="key=value config (max_k, witness_cap, allowlist)")

    p = sub.add_parser("ai", parents=[common],
                       help="compute the asymmetric index of a graph")
    p.add_argument("graph", help="graph6 string, '-' for stdin, or @edge-list-file")
    p.add_argument("--mode", choices=MODES, default="mixed")
    p.add_argument("--max-k", type=int, default=None, help="layer budget")
    p.add_argument("--witnesses", type=int, default=None,
                   help="cap on reported witnesses")
    p.set_defaults(func=_cmd_ai)

    p = sub.add_parser("aut", parents=[common],
                       help="report the automorphism group of a graph")
    p.add_argument("graph", help="graph6 string, '-' for stdin, or @edge-list-file")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("count-cycle-aug", parents=[common],
                       help="count asymmetrizing chord pairs on a cycle and "
                            "compare both closed-form variants")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_count_cycle_aug)

    p = sub.add_parser("verify", parents=[common],
                       help="run the claim ledger ('suite' or a claim id)")
    p.add_argument("claim", help="claim id such as Thm2.2, or 'suite'")
    p.add_argument("--n", help="instance range, e.g. 8 or 6..10")
    p.add_argument("--l", help="pendant-cycle range")
    p.add_argument("--i", help="partition-count range")
    p.add_argument("--budget", type=int, default=None, help="search layer budget")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except (_CliError, Graph6Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the tree search recurses once per individualized vertex
        print("error: input too large: the search is deeper than Python's "
              "recursion limit", file=sys.stderr)
        return EXIT_BUDGET


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
