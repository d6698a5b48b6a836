"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function at every module
attribute bound to it (``from .x import f`` makes one binding per
importing module, and the package re-exports most of them), so calls are
seen whichever module makes them.  Spans are inclusive; a function that
re-enters itself is timed once, at its outermost call.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

from checks import CLASS_N

TRACED = (
    ("automorphism", "is_asymmetric"),
    ("automorphism", "canonical_form"),
    ("automorphism", "automorphism_group"),
    ("automorphism", "group_elements"),
    ("automorphism", "subgroup_elements"),
    ("search", "asymmetric_index"),
    ("search", "flip_orbit_layers"),
    ("search", "count_nonisomorphic_asymmetrizations"),
    ("enumeration", "nonisomorphic_graphs"),
    ("enumeration", "asymmetric_graphs"),
    ("claims", "verify_suite"),
    ("cli", "main"),
)

#: Search depths reported one by one; the ledger's remove-only cycle scans
#: reach k = 12.
MAX_K = 12


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.active = Counter()
        self.count = Counter()
        self.layer_s = Counter()
        self.layer_reps = Counter()
        self.canon_by_n = Counter()
        self.enum_n: list[int] = []

    def install(self) -> None:
        """Wrap every binding of each traced function in loaded modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "asymindex" or name.startswith("asymindex.")]
        for modname, fname in TRACED:
            name = f"{modname}.{fname}"
            original = getattr(sys.modules[f"asymindex.{modname}"], fname)
            wrapper = (self._wrap_layers(original) if fname == "flip_orbit_layers"
                       else self._wrap(name, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            outer = not self.active[name]
            self.active[name] += 1
            token = self._enter(name, args, kwargs)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = perf_counter() - t0
                self.active[name] -= 1
                if outer:
                    self.seconds[name] += dt
                self._exit(name, token, dt, result, exc)
        return wrapper

    def _enter(self, name, args, kwargs):
        if name == "automorphism.canonical_form":
            if self.enum_n:
                self.canon_by_n[self.enum_n[-1]] += 1
            return self.calls["automorphism.group_elements"]
        if name == "enumeration.nonisomorphic_graphs":
            self.enum_n.append(args[0] if args else kwargs["n"])
        return None

    def _exit(self, name, token, dt, result, exc):
        c = self.count
        if name == "automorphism.is_asymmetric":
            c["asym_true"] += bool(result)
            if self.active["search.asymmetric_index"]:
                c["test_calls"] += 1
                self.seconds["search.test"] += dt
        elif name == "automorphism.canonical_form":
            c["fallbacks"] += self.calls["automorphism.group_elements"] > token
        elif name == "automorphism.group_elements":
            c["elements"] += len(result) if result is not None else 0
        elif name == "search.asymmetric_index":
            stats = result.stats if result is not None else getattr(exc, "stats", None)
            if stats is not None:
                c["nodes"] += stats.nodes
                c["tested"] += stats.tested
                c["dedup_hits"] += stats.dedup_hits
            c["budget_exceeded"] += type(exc).__name__ == "BudgetExceededError"
        elif name == "enumeration.nonisomorphic_graphs":
            self.enum_n.pop()
            if result is not None:
                c["classes"] = max(c["classes"], len(result))

    def _wrap_layers(self, fn):
        """Time each step of the layer generator: the first step is the
        orbit set-up, each later one builds layer k."""
        name = "search.flip_orbit_layers"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            under_search = bool(self.active["search.asymmetric_index"])
            gen = fn(*args, **kwargs)
            first = True
            while True:
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                dt = perf_counter() - t0
                if first:
                    self.seconds["search.orbit_setup"] += dt
                    first = False
                else:
                    k, reps = item
                    self.layer_s[k] += dt
                    self.layer_reps[k] += len(reps)
                    if under_search:
                        self.count["search_reps"] += len(reps)
                yield item
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name (units are declared in BENCHMARK.json)."""
        s, c, calls = self.seconds, self.count, self.calls
        out = {
            "automorphism.is_asymmetric.calls": calls["automorphism.is_asymmetric"],
            "automorphism.is_asymmetric.s": s["automorphism.is_asymmetric"],
            "automorphism.is_asymmetric.true_frac":
                c["asym_true"] / max(1, calls["automorphism.is_asymmetric"]),
            "automorphism.canonical_form.calls": calls["automorphism.canonical_form"],
            "automorphism.canonical_form.s": s["automorphism.canonical_form"],
            "automorphism.canonical_form.fallbacks": c["fallbacks"],
            "automorphism.automorphism_group.calls":
                calls["automorphism.automorphism_group"],
            "automorphism.automorphism_group.s": s["automorphism.automorphism_group"],
            "automorphism.group_elements.calls": calls["automorphism.group_elements"],
            "automorphism.group_elements.s": s["automorphism.group_elements"],
            "automorphism.group_elements.elements": c["elements"],
            "automorphism.subgroup_elements.calls":
                calls["automorphism.subgroup_elements"],
            "search.asymmetric_index.calls": calls["search.asymmetric_index"],
            "search.asymmetric_index.s": s["search.asymmetric_index"],
            "search.orbit_setup_s": s["search.orbit_setup"],
            "search.test_s": s["search.test"],
            "search.nodes": c["nodes"],
            "search.tested": c["tested"],
            "search.dedup_hits": c["dedup_hits"],
            "search.budget_exceeded": c["budget_exceeded"],
            "search.reps_per_node": c["search_reps"] / max(1, c["nodes"]),
            "search.count_nonisomorphic_asymmetrizations.s":
                s["search.count_nonisomorphic_asymmetrizations"],
            "enumeration.nonisomorphic_graphs.s": s["enumeration.nonisomorphic_graphs"],
            "enumeration.canon_calls": self.canon_by_n[CLASS_N],
            "enumeration.classes": c["classes"],
            "enumeration.asymmetric_graphs.s": s["enumeration.asymmetric_graphs"],
            "claims.verify_suite.s": s["claims.verify_suite"],
            "cli.overhead_s": s["cli.main"] - s["claims.verify_suite"],
        }
        if max(self.layer_s, default=0) > MAX_K:
            raise ValueError(f"search reached k = {max(self.layer_s)} > {MAX_K}; "
                             "widen MAX_K and the per-layer metric list")
        for k in range(1, MAX_K + 1):
            out[f"search.layer_s.k{k}"] = self.layer_s[k]
            out[f"search.reps.k{k}"] = self.layer_reps[k]
        return out
