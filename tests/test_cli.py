"""CLI contract: grammar round-trips, exit codes, JSON determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from asymindex.cli import main
from asymindex.graph import GRAPH6_MAX_N, from_graph6, to_graph6
from asymindex.families import complete, cycle, path, split, star, wheel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GRAMMAR = ["path:9", "cycle:12", "complete:7", "star:8", "wheel:9",
           "circulant:17:1,4", "grid:3x4", "pxc:3x5", "torus:6x7",
           "split:8+3", "pendant-cycle:4"]


class TestGen:
    def test_cycle6(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle:6")
        assert code == 0
        assert from_graph6(out.strip()) == cycle(6)

    def test_circulant_regularity(self, capsys):
        code, out, _ = run(capsys, "gen", "circulant:15:1,4")
        g = from_graph6(out.strip())
        assert code == 0 and g.n == 15 and set(g.degree_sequence()) == {4}

    def test_grid_2x2_is_c4(self, capsys):
        code, out, _ = run(capsys, "gen", "grid:2x2")
        from asymindex.automorphism import are_isomorphic
        assert are_isomorphic(from_graph6(out.strip()), cycle(4))

    def test_parse_error_exit2(self, capsys):
        code, out, err = run(capsys, "gen", "moebius:7")
        assert code == 2 and "error" in err

    def test_every_grammar_production_roundtrips(self, capsys):
        for spec in GRAMMAR:
            code, out, _ = run(capsys, "gen", spec)
            assert code == 0
            code, _, _ = run(capsys, "aut", out.strip())
            assert code == 0


class TestAi:
    def test_p6_value_and_witness(self, capsys):
        g6 = to_graph6(path(6)).decode()
        code, out, _ = run(capsys, "ai", g6, "--json")
        assert code == 0
        payload = json.loads(out)["result"]
        assert payload["value"] == 1
        assert [1, 3] in payload["witnesses"][0]["added"]

    def test_c4_exit3(self, capsys):
        code, _, err = run(capsys, "ai", to_graph6(cycle(4)).decode())
        assert code == 3 and "asymmetrization" in err

    def test_wheel_remove_only(self, capsys):
        code, out, _ = run(capsys, "ai", to_graph6(wheel(7)).decode(),
                           "--mode", "remove-only", "--json")
        assert code == 0
        assert json.loads(out)["result"]["value"] == 2

    def test_budget_exit4(self, capsys):
        code, out, _ = run(capsys, "ai", to_graph6(cycle(8)).decode(),
                           "--max-k", "1", "--json")
        assert code == 4
        payload = json.loads(out)["result"]
        assert payload["status"] == "budget-exceeded"
        assert payload["proven_lower_bound"] == 2

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(path(7)).decode()))
        code, out, _ = run(capsys, "ai", "-", "--json")
        assert code == 0 and json.loads(out)["result"]["value"] == 1

    def test_edge_list_file(self, capsys, tmp_path):
        from asymindex.graph import to_edge_list
        f = tmp_path / "graph.txt"
        f.write_text(to_edge_list(path(8)))
        code, out, _ = run(capsys, "ai", f"@{f}", "--json")
        assert code == 0 and json.loads(out)["result"]["value"] == 1

    def test_bare_at_is_k1(self, capsys):
        code, out, _ = run(capsys, "ai", "@", "--json")
        assert code == 0 and json.loads(out)["result"]["value"] == 0

    def test_one_based_labels(self, capsys):
        g6 = to_graph6(path(6)).decode()
        code, out, _ = run(capsys, "ai", g6, "--json", "--one-based")
        payload = json.loads(out)["result"]
        assert payload["label_base"] == 1
        assert [2, 4] in payload["witnesses"][0]["added"]

    def test_text_witnesses_match_json(self, capsys):
        # W_9's witnesses mix removals, additions and empty sides
        g6 = to_graph6(wheel(9)).decode()
        _, text, _ = run(capsys, "ai", g6, "--one-based")
        _, out, _ = run(capsys, "ai", g6, "--json", "--one-based")

        def pairs(field):
            return [] if field == "-" else [
                [int(x) for x in pair.split("-")] for pair in field.split()]

        lines = [line for line in text.splitlines() if line.startswith("witness: ")]
        got = []
        for line in lines:
            rem, add = line.removeprefix("witness: remove [").removesuffix("]").split(
                "] add [")
            got.append({"removed": pairs(rem), "added": pairs(add)})
        witnesses = json.loads(out)["result"]["witnesses"]
        assert len(witnesses) > 1
        assert any(w["removed"] and w["added"] for w in witnesses)
        assert got == witnesses

    def test_json_deterministic(self, capsys):
        g6 = to_graph6(wheel(8)).decode()
        _, out1, _ = run(capsys, "ai", g6, "--json")
        _, out2, _ = run(capsys, "ai", g6, "--json")
        assert out1 == out2

    # sha256 of the whole --json output of the class search: K_9
    # remove-only is exact (ai = 7), and the star on 10 vertices stops at
    # its budget with bound 2
    @pytest.mark.parametrize("g,argv,exit_code,digest", [
        pytest.param(complete(9), ["--mode", "remove-only", "--max-k", "7"], 0,
                     "285e90384509be69556ca29d4b5d3ffe3e5ebfe348dc1a84a65cb3192c712109",
                     id="k9-remove-only"),
        pytest.param(star(10), ["--max-k", "1"], 4,
                     "64748aa75196bccfb504ad571cd00c71bda43478146f260e90ebae4d841d65d6",
                     id="star10-budget")])
    def test_heavy_inputs_pinned(self, capsys, g, argv, exit_code, digest):
        code, out, _ = run(capsys, "ai", to_graph6(g).decode(), *argv, "--json")
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("g,argv,keys", [
        (path(6), [], {"label_base", "mode", "status", "value", "witnesses"}),
        (cycle(8), ["--max-k", "1"], {"label_base", "mode", "proven_lower_bound",
                                      "status", "universe_exhausted"}),
        (cycle(4), [], {"label_base", "mode", "n", "status"})],
        ids=["ok", "budget-exceeded", "no-asymmetrization"])
    def test_json_result_keys(self, capsys, g, argv, keys):
        # only proven figures: no transposable-set bound in any envelope
        _, out, _ = run(capsys, "ai", to_graph6(g).decode(), *argv, "--json")
        assert set(json.loads(out)["result"]) == keys

    def test_text_has_no_bound_line(self, capsys):
        code, out, _ = run(capsys, "ai", to_graph6(cycle(8)).decode())
        lines = out.splitlines()
        assert code == 0 and lines[0] == "ai = 2  (mode mixed)"
        assert all(line.startswith(("witness: ", "stats: ")) for line in lines[1:])

    def test_parse_error_exit2(self, capsys):
        code, _, err = run(capsys, "ai", "~z")
        assert code == 2

    def test_bad_witness_cap_and_budget_exit2(self, capsys):
        g6 = to_graph6(path(6)).decode()
        for flag, value in (("--witnesses", "0"), ("--max-k", "-1")):
            code, out, err = run(capsys, "ai", g6, flag, value)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


class TestHashSeed:
    def test_outputs_independent_of_hash_seed(self):
        # The bench pins PYTHONHASHSEED=0, so output that rests on the
        # order of a hashed set or dict shows only across seeds: one
        # interpreter per seed, each printing aut and ai --json envelopes.
        code = ("import sys\n"
                "from asymindex.cli import main\n"
                "for g6 in sys.argv[1:]:\n"
                "    for cmd in ('aut', 'ai'):\n"
                "        print(main([cmd, g6, '--json']))\n")
        graphs = [to_graph6(g).decode() for g in (star(9), split(5, 3), complete(7))]
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            outs.append(subprocess.run([sys.executable, "-c", code, *graphs], env=env,
                                       check=True, capture_output=True, text=True).stdout)
        assert outs[0] == outs[1]
        assert outs[0].count('"command": "aut"') == outs[0].count('"command": "ai"') == 3


class TestAut:
    def test_c6(self, capsys):
        code, out, _ = run(capsys, "aut", to_graph6(cycle(6)).decode(), "--json")
        payload = json.loads(out)["result"]
        assert code == 0
        assert payload["order"] == "12"
        assert payload["is_asymmetric"] is False
        assert payload["orbits"] == [[0, 1, 2, 3, 4, 5]]

    def test_figure_two_graph(self, capsys):
        g = cycle(6).add_edge(2, 4).add_edge(2, 5)
        code, out, _ = run(capsys, "aut", to_graph6(g).decode(), "--json")
        payload = json.loads(out)["result"]
        assert payload["is_asymmetric"] is True and payload["order"] == "1"
        assert payload["generators"] == []

    def test_k5_order(self, capsys):
        from asymindex.families import complete
        code, out, _ = run(capsys, "aut", to_graph6(complete(5)).decode(), "--json")
        assert json.loads(out)["result"]["order"] == "120"

    def test_bare_at_is_k1(self, capsys):
        code, out, _ = run(capsys, "aut", "@", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["input"] == "@"
        assert payload["result"]["order"] == "1"

    def test_too_deep_search_exit4(self, capsys, tmp_path):
        # The tree search recurses once per individualized vertex, so 1100
        # isolated vertices go past Python's recursion limit.
        f = tmp_path / "empty1100.txt"
        f.write_text("1100\n")
        code, out, err = run(capsys, "aut", f"@{f}", "--json")
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_too_deep_ai_json_envelope(self, capsys, tmp_path):
        # ai --json reports the same input in the budget envelope; nothing
        # is proven before the first asymmetry test finishes
        f = tmp_path / "empty1100.txt"
        f.write_text("1100\n")
        code, out, _ = run(capsys, "ai", f"@{f}", "--json")
        payload = json.loads(out)
        assert code == 4 and payload["stats"] == {}
        result = payload["result"]
        assert result["status"] == "budget-exceeded"
        assert result["proven_lower_bound"] == 0
        assert result["universe_exhausted"] is False


class TestCountCycleAug:
    def test_n6(self, capsys):
        code, out, _ = run(capsys, "count-cycle-aug", "6", "--json")
        payload = json.loads(out)["result"]
        assert code == 0
        assert payload["enumerated"] == 1
        assert payload["text_formula"] == 1 and payload["text_matches"]
        assert payload["remark_formula"] == 5 and not payload["remark_matches"]

    def test_n7_flags_printed(self, capsys):
        code, out, _ = run(capsys, "count-cycle-aug", "7")
        assert code == 0 and "MISMATCH" in out

    def test_n5_exit2(self, capsys):
        code, _, err = run(capsys, "count-cycle-aug", "5")
        assert code == 2

    def test_enumerated_pinned(self, capsys):
        # Values of the exhaustive chord-pair count, which the orbit count
        # must keep.
        for n, expected in ((14, 81), (18, 208)):
            code, out, _ = run(capsys, "count-cycle-aug", str(n), "--json")
            assert code == 0
            assert json.loads(out)["result"]["enumerated"] == expected


class TestVerify:
    def test_thm22_range(self, capsys):
        code, out, _ = run(capsys, "verify", "Thm2.2", "--n", "6..10")
        assert code == 0
        assert out.count("confirmed") >= 15

    def test_printed_lower_allowlisted_exit0(self, capsys):
        code, out, _ = run(capsys, "verify", "Thm2.6-printed-lower")
        assert code == 0 and "allowlisted" in out

    def test_suite_budget_stops_exit0(self, capsys):
        # every search-backed row turns a budget stop into a row; the
        # seven removal-free cycle rows stop at the budget too
        code, out, err = run(capsys, "verify", "suite", "--budget", "1")
        assert code == 0 and err == ""
        assert out.splitlines()[-1].endswith(
            "604 confirmed, 23 refuted (23 allowlisted), 134 budget-exceeded, "
            "2 not-applicable")

    def test_unknown_claim_exit2(self, capsys):
        code, _, err = run(capsys, "verify", "Thm7.7")
        assert code == 2

    def test_custom_allowlist_triggers_exit5(self, capsys, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("allowlist = Thm2.8-boundary\n")
        code, out, _ = run(capsys, "verify", "Thm2.6-printed-lower",
                           "--config", str(cfg))
        assert code == 5

    def test_prop11_range_covers_both_orders(self, capsys):
        code, out, _ = run(capsys, "verify", "Prop1.1", "--n", "5..6", "--json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert {from_graph6(r["params"]["graph6"]).n for r in rows} == {5, 6}

    def test_thm24_range_honoured(self, capsys):
        code, out, _ = run(capsys, "verify", "Thm2.4", "--n", "4..5", "--json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert sorted(r["params"]["n"] for r in rows if r["claim"] == "Thm2.4") \
            == [4, 4, 5, 5]
        # each witness runs on both signs of each n in the range
        witness_args = [r["params"]["args"] for r in rows
                        if r["claim"] == "Thm2.4-witness"]
        assert len(witness_args) == 12
        assert sorted(map(tuple, witness_args)) == sorted(
            [(n, sign) for n in (4, 5) for sign in "+-"] * 3)

    def test_empty_range_exit2(self, capsys):
        code, out, err = run(capsys, "verify", "Thm2.2", "--n", "8..6")
        assert code == 2 and out == "" and "empty instance range" in err

    def test_undeclared_parameter_exit2(self, capsys):
        code, _, err = run(capsys, "verify", "Thm2.6", "--n", "8")
        assert code == 2 and "takes no parameters" in err
        code, _, err = run(capsys, "verify", "Lem2.1", "--n", "7")
        assert code == 2 and "'i'" in err
        code, _, err = run(capsys, "verify", "suite", "--n", "6")
        assert code == 2 and "suite takes no parameters" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "Lem2.1", "--i", "6..12", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "verify"
        assert len(payload["result"]["rows"]) == 7
        assert payload["result"]["unexpected_refutations"] == 0


class TestConfig:
    def test_config_applies_budget(self, capsys, tmp_path):
        cfg = tmp_path / "asym.cfg"
        cfg.write_text("# search settings\nmax_k = 1\nwitness_cap = 2\n")
        code, out, _ = run(capsys, "ai", to_graph6(cycle(8)).decode(),
                           "--json", "--config", str(cfg))
        assert code == 4  # budget 1 cannot asymmetrize a cycle

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 3\n")
        code, _, err = run(capsys, "ai", to_graph6(cycle(8)).decode(),
                           "--config", str(cfg))
        assert code == 2 and "unknown key" in err

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("max_k = soon\n")
        code, _, err = run(capsys, "ai", to_graph6(cycle(8)).decode(),
                           "--config", str(cfg))
        assert code == 2 and "integer" in err


def graph6_order(data: bytes):
    """n if ``data`` is well-formed graph6 with a one-byte size field, else None."""
    data = data.strip()
    n, body = data[0] - 63, data[1:]
    nbits = n * (n - 1) // 2
    if not (0 <= n <= 62 and len(body) == -(-nbits // 6)
            and all(63 <= b <= 126 for b in body)):
        return None
    pad = 6 * len(body) - nbits
    return None if body and (body[-1] - 63) & ((1 << pad) - 1) else n


def edge_list_order(text: str):
    """n if ``text`` is a well-formed edge list, else None."""
    try:
        text.encode("ascii")
        (n,), *edges = [line.split() for line in text.splitlines() if line.split()]
        n = int(n)
        edges = [(int(u), int(v)) for u, v in edges]
    except ValueError:
        return None
    pairs = {frozenset(e) for e in edges}
    if not 0 <= n <= GRAPH6_MAX_N or len(pairs) != len(edges) or any(
            u == v or not (0 <= u < n and 0 <= v < n) for u, v in edges):
        return None
    return n


# Size bytes for n <= 9, and invalid ones that are neither whitespace
# (stripped, so the next byte would become the size) nor '-' (an option).
# '@' (n = 1) names an edge-list file only when a non-blank name follows.
SIZE_BYTES = st.sampled_from(b"?@ABCDEFGH\x00\x01!0=\x7f\x80\xff")
NOISE = st.text("x.+-\u00e9", min_size=1, max_size=2)
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestMalformedInput:
    """`aut` on arbitrary input exits 0 on a well-formed graph and 2 with
    one `error:` line otherwise; it never raises."""

    @staticmethod
    def check(capsys, arg, expected_n):
        code, out, err = run(capsys, "aut", arg, "--json")
        if expected_n is None:
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            assert code == 0 and err == ""
            assert from_graph6(json.loads(out)["input"]).n == expected_n

    @FUZZ
    @given(size=SIZE_BYTES, body=st.binary(max_size=10))
    def test_graph6_bytes(self, capsys, size, body):
        data = bytes([size]) + body
        self.check(capsys, data.decode("latin-1"), graph6_order(data))

    @FUZZ
    @given(head=st.lists(st.integers(-2, 9).map(str) | NOISE, max_size=2),
           lines=st.lists(st.lists(st.integers(-2, 10).map(str) | NOISE,
                                   max_size=3), max_size=6))
    def test_edge_list_files(self, capsys, tmp_path, head, lines):
        text = "\n".join(" ".join(toks) for toks in [head] + lines) + "\n"
        path_ = tmp_path / "edges.txt"
        path_.write_bytes(text.encode("utf-8"))
        self.check(capsys, f"@{path_}", edge_list_order(text))

    @pytest.mark.parametrize("count", ["100000000000", "-3"])
    def test_vertex_count_out_of_range(self, capsys, tmp_path, count):
        # checked before any allocation, so a huge count fails at once
        path_ = tmp_path / "edges.txt"
        path_.write_text(f"{count}\n")
        t0 = time.perf_counter()
        self.check(capsys, f"@{path_}", None)
        assert time.perf_counter() - t0 < 5
