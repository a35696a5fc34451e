import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cliquecore
from cliquecore import (
    WeightedGraph,
    compute_core_imputation,
    fraction_str,
    from_spec,
    game_worth,
    maximal_cliques,
    paley3x3,
    random_bipartite,
    serialize_graph,
)
from cliquecore.cli import _InputError, build_parser, main
from cliquecore.graph import DEFAULT_MAX_N
from conftest import WIDE_GRAPH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_paley_worth_and_dual(self, capsys):
        code, out, err = run(capsys, "solve", "--generate", "paley3x3")
        assert code == 0
        assert "worth: 3" in out
        assert "dual optimum: 3" in out
        assert err == ""

    def test_complete_graph_worth_is_max_weight(self, capsys, tmp_path):
        path = tmp_path / "k3.graph"
        path.write_text("p 3 3\ne 0 1\ne 0 2\ne 1 2\nw 0 1\nw 1 2\nw 2 3\n")
        code, out, _ = run(capsys, "solve", "--input", str(path))
        assert code == 0
        assert "worth: 3" in out

    def test_imperfect_graph_warns_but_succeeds(self, capsys):
        code, out, err = run(capsys, "solve", "--generate", "cycle:5")
        assert code == 0
        assert "worth: 2" in out
        assert "dual optimum: 5/2" in out
        assert "not perfect" in err

    def test_json_output_is_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "solve", "--generate", "paley3x3", "--json")
        _, out2, _ = run(capsys, "solve", "--generate", "paley3x3", "--json")
        assert out1 == out2
        data = json.loads(out1)
        assert data["worth"] == "3"
        assert data["dual"]["integral"] is True
        assert data["dualEqualsWorth"] is True

    def test_dump_lp(self, capsys, tmp_path):
        prefix = str(tmp_path / "paley")
        code, _, _ = run(
            capsys, "solve", "--generate", "paley3x3", "--dump-lp", prefix
        )
        assert code == 0
        primal = (tmp_path / "paley.primal.lp").read_text()
        dual = (tmp_path / "paley.dual.lp").read_text()
        assert "Maximize" in primal and primal.count("<= 1") == 6
        assert "Minimize" in dual and dual.count(">=") == 9

    def test_dump_lp_into_missing_directory(self, capsys, tmp_path):
        prefix = str(tmp_path / "missing" / "paley")
        code, out, err = run(
            capsys, "solve", "--generate", "paley3x3", "--dump-lp", prefix
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {prefix}.primal.lp: ")
        assert err.count("\n") == 1


class TestVerify:
    @pytest.fixture
    def paley_file(self, tmp_path):
        path = tmp_path / "paley.graph"
        path.write_text(serialize_graph(paley3x3()))
        return str(path)

    def write_imputation(self, tmp_path, mapping, name="imp.json"):
        path = tmp_path / name
        path.write_text(json.dumps(mapping))
        return str(path)

    def test_rows_in_core(self, capsys, tmp_path, paley_file):
        imp = self.write_imputation(
            tmp_path, {"0-1-2": "1", "3-4-5": "1", "6-7-8": "1"}
        )
        code, out, _ = run(capsys, "verify", "--input", paley_file, imp)
        assert code == 0
        assert "in-core" in out

    def test_rows_in_core_exhaustive(self, capsys, tmp_path, paley_file):
        imp = self.write_imputation(
            tmp_path, {"0-1-2": "1", "3-4-5": "1", "6-7-8": "1"}
        )
        code, out, _ = run(
            capsys, "verify", "--input", paley_file, imp, "--exhaustive", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "in-core"
        assert data["scenariosChecked"] == 512

    def test_one_row_violated(self, capsys, tmp_path, paley_file):
        imp = self.write_imputation(tmp_path, {"0-1-2": "3"})
        code, out, _ = run(
            capsys, "verify", "--input", paley_file, imp, "--exhaustive"
        )
        assert code == 3
        assert "violated" in out
        assert "[3]" in out

    def test_unknown_clique_key(self, capsys, tmp_path, paley_file):
        imp = self.write_imputation(tmp_path, {"0-1": "3"})
        code, _, err = run(capsys, "verify", "--input", paley_file, imp)
        assert code == 1
        assert "not a maximal clique" in err

    def test_unknown_clique_key_message_quoted_once(self, capsys, tmp_path, paley_file):
        imp = self.write_imputation(tmp_path, {"0-1": "3"})
        _, _, err = run(capsys, "verify", "--input", paley_file, imp)
        assert err == "error: '0-1' is not a maximal clique of this graph\n"

    def test_empty_imputation_on_zero_worth_graph(self, capsys, tmp_path):
        graph = tmp_path / "one.graph"
        graph.write_text("p 1 0\nw 0 0\n")
        imp = self.write_imputation(tmp_path, {})
        code, out, _ = run(capsys, "verify", "--input", str(graph), imp)
        assert code == 0
        assert "in-core" in out

    def test_fractional_amounts(self, capsys, tmp_path, paley_file):
        mapping = {k: "1/2" for k in ("0-1-2", "3-4-5", "6-7-8", "0-3-6", "1-4-7", "2-5-8")}
        imp = self.write_imputation(tmp_path, mapping)
        code, out, _ = run(capsys, "verify", "--input", paley_file, imp, "--exhaustive")
        assert code == 0
        assert "in-core" in out


class TestExhaustiveMemoryGuard:
    """The exhaustive check bounds the bytes of its packed money and
    need, not n alone."""

    def test_wide_n22_refused_before_allocating(self, capsys, tmp_path):
        # Weights of 2,000 digits over a 2,000-digit denominator: 2^22
        # fields of over 800 bytes each would take gigabytes.
        rng = random.Random(22)
        denominator = 7**2367
        g = random_bipartite(22, 0.5, 1).with_weights(
            [Fraction(rng.randrange(denominator), denominator) for _ in range(22)]
        )
        graph = tmp_path / "wide.graph"
        graph.write_text(serialize_graph(g))
        imp = tmp_path / "imp.json"
        imp.write_text(json.dumps({maximal_cliques(g).key(0): fraction_str(game_worth(g))}))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--input", str(graph), str(imp), "--exhaustive")
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, "")
        assert err.startswith("guard: exhaustive scenario check needs ")
        assert err.count("\n") == 1
        assert elapsed < 1

    def test_unit_chordal22_accepted(self, capsys, tmp_path):
        g = from_spec("chordal:22", seed=7)
        cliques = maximal_cliques(g)
        imp = tmp_path / "imp.json"
        imp.write_text(json.dumps(compute_core_imputation(g, cliques).to_json_dict(cliques)))
        code, out, _ = run(
            capsys, "verify", "--generate", "chordal:22", "--seed", "7", str(imp), "--exhaustive"
        )
        assert code == 0
        assert "verdict: in-core" in out
        assert f"scenarios checked: {1 << 22}" in out


class TestCheckPerfect:
    def test_cycle5_not_perfect(self, capsys):
        code, out, _ = run(capsys, "check-perfect", "--generate", "cycle:5")
        assert code == 3
        assert "not perfect" in out
        assert "[0, 1, 2, 3, 4]" in out

    def test_paley_perfect(self, capsys):
        code, out, _ = run(capsys, "check-perfect", "--generate", "paley3x3")
        assert code == 0
        assert out.strip() == "perfect"

    def test_bipartite_perfect(self, capsys):
        code, _, _ = run(
            capsys, "check-perfect", "--generate", "bipartite:8", "--seed", "2"
        )
        assert code == 0

    def test_guard_violation_exit_2(self, capsys):
        code, _, err = run(
            capsys, "check-perfect", "--generate", "paley3x3", "--max-n", "4"
        )
        assert code == 2
        assert "guard" in err

    @pytest.mark.parametrize("spec, seed", [("chordal:32", "1"), ("bipartite:32", "2")])
    def test_perfect_past_sixteen_vertices(self, capsys, spec, seed):
        code, out, err = run(capsys, "check-perfect", "--generate", spec, "--seed", seed)
        assert (code, out, err) == (0, "perfect\n", "")

    def test_path_budget_exit_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "check-perfect", "--generate", "bipartite:60", "--seed", "1")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == "guard: odd-hole search capped at 524288 chordless paths\n"


class TestGuardBeforeWork:
    """--max-n rejects a graph on its header or its spec alone."""

    @pytest.fixture
    def no_graph_built(self, monkeypatch):
        def refuse(cls, *args, **kwargs):
            raise AssertionError("a graph was built before the guard fired")

        monkeypatch.setattr(WeightedGraph, "from_edges", classmethod(refuse))

    def test_huge_header(self, capsys, tmp_path, no_graph_built):
        path = tmp_path / "huge.graph"
        path.write_text("p 300000 0")
        code, out, err = run(capsys, "solve", "--input", str(path), "--max-n", "10")
        assert (code, out) == (2, "")
        assert err == "guard: graph has 300000 vertices, --max-n is 10\n"

    def test_huge_spec(self, capsys, no_graph_built):
        code, out, err = run(
            capsys, "solve", "--generate", "complete:3000", "--max-n", "10"
        )
        assert (code, out) == (2, "")
        assert err == "guard: graph has 3000 vertices, --max-n is 10\n"

    @pytest.mark.parametrize("source", ["file", "spec"])
    def test_default_ceiling_without_max_n(self, capsys, tmp_path, no_graph_built, source):
        if source == "file":
            path = tmp_path / "huge.graph"
            path.write_text("p 2000000 0\n")
            assert path.stat().st_size == 12
            argv = ["solve", "--input", str(path)]
        else:
            argv = ["solve", "--generate", "complete:2000000"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "guard: graph has 2000000 vertices, above the default ceiling of "
            f"{DEFAULT_MAX_N} (raise it with --max-n)\n"
        )

    @pytest.mark.parametrize(
        "verb", [["solve"], ["verify", "{}"], ["verify", "{}", "--exhaustive"]]
    )
    def test_size_guard_before_cliques(self, capsys, tmp_path, verb):
        # The complete 15-partite graph with parts of 3 has 45 vertices and
        # 3^15 (about 14 million) maximal cliques: the verbs refuse it on
        # its size, as they refuse a path of 45 vertices, without
        # enumerating a clique.
        parts = WeightedGraph.from_edges(
            45, [(u, v) for u in range(45) for v in range(u + 1, 45) if u // 3 != v // 3]
        )
        path = tmp_path / "multipartite.graph"
        path.write_text(serialize_graph(parts))
        imputation = tmp_path / "empty.json"
        imputation.write_text("{}")
        argv = [str(imputation) if a == "{}" else a for a in verb]
        _, _, expected = run(capsys, *argv, "--generate", "path:45")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == expected
        assert err.startswith("guard: ")

    def test_tableau_guard_before_pivoting(self, capsys, tmp_path):
        # The complete 10-partite graph with parts of 3 passes the n <= 30
        # guard, but its 3^10 = 59,049 maximal cliques make a tableau of
        # 30 * (30 + 59,049 + 1) cells: refused after enumeration, before
        # the first pivot.
        parts = WeightedGraph.from_edges(
            30, [(u, v) for u in range(30) for v in range(u + 1, 30) if u // 3 != v // 3]
        )
        path = tmp_path / "multipartite.graph"
        path.write_text(serialize_graph(parts))
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == "guard: game LP capped at 150000 tableau cells, needs 1772400\n"

    def test_max_n_overrides_the_ceiling(self, capsys):
        n = DEFAULT_MAX_N + 1
        argv = ("cliques", "--generate", f"path:{n}")
        assert run(capsys, *argv)[0] == 2
        code, out, _ = run(capsys, *argv, "--max-n", str(n))
        assert code == 0
        assert len(out.splitlines()) == n - 1


class TestCliquesAndGenerate:
    def test_cliques_canonical_order(self, capsys):
        code, out, _ = run(capsys, "cliques", "--generate", "paley3x3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["0 1 2", "0 3 6", "1 4 7", "2 5 8", "3 4 5", "6 7 8"]

    def test_generate_deterministic(self, capsys):
        _, out1, _ = run(capsys, "generate", "--generate", "chordal:8", "--seed", "9")
        _, out2, _ = run(capsys, "generate", "--generate", "chordal:8", "--seed", "9")
        assert out1 == out2
        assert out1.startswith("p 8 ")

    def test_generate_random_needs_seed(self, capsys):
        code, _, err = run(capsys, "generate", "--generate", "chordal:8")
        assert code == 1
        assert "seed" in err

    def test_generate_output_parses_back(self, capsys, tmp_path):
        _, out, _ = run(capsys, "generate", "--generate", "bipartite:6", "--seed", "4")
        from cliquecore import parse_graph, random_bipartite

        assert parse_graph(out) == random_bipartite(6, 0.5, seed=4)

    def test_clique_of_a_thousand_vertices(self, capsys):
        # enumeration keeps its own stack, so clique size meets no recursion limit
        code, out, err = run(capsys, "cliques", "--generate", "complete:1000", "--max-n", "1000")
        assert (code, err) == (0, "")
        assert out.splitlines() == [" ".join(map(str, range(1000)))]


class TestCorpus:
    def test_small_corpus_passes(self, capsys):
        code, out, _ = run(
            capsys, "corpus", "--count", "6", "--n", "8", "--seed", "1"
        )
        assert code == 0
        assert "result: ok" in out

    def test_include_imperfect_reports_not_errors(self, capsys):
        code, out, _ = run(
            capsys,
            "corpus", "--count", "2", "--seed", "1", "--include-imperfect",
        )
        assert code == 0
        assert "open integrality gap (expected)" in out

    def test_count_zero_empty_summary(self, capsys):
        code, out, _ = run(capsys, "corpus", "--count", "0", "--seed", "1")
        assert code == 0
        assert "instances: 0" in out

    def test_seed_required(self, capsys):
        code, _, err = run(capsys, "corpus", "--count", "1")
        assert code == 1
        assert "seed" in err

    def test_json_deterministic(self, capsys):
        args = ("corpus", "--count", "3", "--seed", "2", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert json.loads(out1)["allOk"] is True

    def test_negative_count_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "corpus", "--count", "-3", "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == "error: --count must be >= 0, got -3\n"

    @pytest.mark.parametrize("n", ["3", "-3"])
    def test_n_below_four_is_an_input_error(self, capsys, n):
        code, out, err = run(capsys, "corpus", "--count", "2", "--n", n, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: --n must be >= 4, got {n}\n"

    def test_max_n_is_not_a_corpus_flag(self, capsys):
        code, out, err = run(
            capsys, "corpus", "--seed", "1", "--count", "2", "--n", "5", "--max-n", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--max-n" in err
        assert err.count("\n") == 1

    def test_n_above_the_chain_cap_refused_before_drawing(self, capsys, monkeypatch):
        def drawn(**kwargs):
            raise AssertionError("corpus drawn before the size guard")

        monkeypatch.setattr(cliquecore.corpus, "build_corpus", drawn)
        code, out, err = run(capsys, "corpus", "--count", "14", "--n", "17", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "guard: corpus instances capped at --n <= 16\n"


LONG = 5000


class TestLongTokensClipped:
    """A megabyte-long token is quoted by its first characters and its
    length, so each error stays one short line."""

    @pytest.mark.parametrize(
        "text,exit_code",
        [
            (f"p 2 0\nw 0 {'1' * LONG}\n", 1),  # over Python's int digit limit
            (f"p 2 0\nw 0 -{'1' * 4000}\n", 1),
            (f"p 2 1\ne {'x' * LONG} 1\n", 1),
            (f"p 2 1\ne {'9' * 4000} 1\n", 1),
            (f"p 2 0\n{'q' * LONG} 1\n", 1),
            (f"p {'9' * 4000} 0\n", 2),
        ],
        ids=["bad-rational", "negative-weight", "not-a-vertex-id", "vertex-id-out-of-range",
             "unknown-directive", "vertex-count-over-ceiling"],
    )
    def test_graph_file(self, capsys, tmp_path, text, exit_code):
        path = tmp_path / "long.graph"
        path.write_text(text)
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert (code, out) == (exit_code, "")
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize(
        "imputation",
        [{"k" * 3000: "1"}, {"0-1-2": "x" * LONG}, {"k" * LONG: "x" * LONG}, {"0-1-2": "-" + "1" * 4000}],
        ids=["unknown-key", "bad-amount", "bad-amount-and-key", "negative-money"],
    )
    def test_imputation_file(self, capsys, tmp_path, imputation):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(imputation))
        code, out, err = run(capsys, "verify", "--generate", "paley3x3", str(path))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and len(err) < 200

    def test_imputation_integer_over_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"0-1-2": ' + "1" * LONG + "}")
        code, out, err = run(capsys, "verify", "--generate", "paley3x3", str(path))
        assert (code, out) == (1, "")
        assert err == "error: cannot read imputation file: a number has more than 4300 digits\n"

    def test_imputation_integer_at_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"0-1-2": ' + "1" * 4300 + "}")
        code, out, err = run(capsys, "verify", "--generate", "paley3x3", str(path))
        assert (code, err) == (3, "")
        assert out.startswith("verdict: not-an-imputation")


class TestWideNumbers:
    """A result with more digits than Python writes as text is refused
    with one guard line before anything reaches stdout or a file."""

    def test_verify_and_dump_lp_refused_before_output(self, capsys, tmp_path):
        graph = tmp_path / "wide.graph"
        graph.write_text(WIDE_GRAPH)
        imp = tmp_path / "imp.json"
        imp.write_text('{"0": "1"}')
        guard = "guard: a number to write has more than 4300 digits\n"
        assert run(capsys, "verify", "--input", str(graph), str(imp)) == (2, "", guard)
        prefix = tmp_path / "dump"
        assert run(capsys, "solve", "--input", str(graph), "--dump-lp", str(prefix)) == (2, "", guard)
        assert list(tmp_path.glob("*.lp")) == []

    def test_imputation_denominators_refused_at_once(self, tmp_path):
        # 100 amounts over distinct odd 4,000-digit denominators (a 400 KB
        # file) on the complete 7-partite graph with parts of 3 (2,187
        # cliques): their lcm passes the digit limit at the second one.
        parts = WeightedGraph.from_edges(
            21, [(u, v) for u in range(21) for v in range(u + 1, 21) if u // 3 != v // 3]
        )
        graph = tmp_path / "multipartite.graph"
        graph.write_text(serialize_graph(parts))
        cliques = maximal_cliques(parts)
        imp = tmp_path / "imp.json"
        imp.write_text(json.dumps({cliques.key(c): f"1/{10**3999 + 2 * c + 1}" for c in range(100)}))
        assert imp.stat().st_size > 400_000
        env = dict(os.environ, PYTHONPATH=str(Path(cliquecore.__file__).parents[1]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "cliquecore.cli", "verify", "--input", str(graph), str(imp)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "guard: the amounts' common denominator has more than 4300 digits\n"


class TestErrors:
    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("p 2 1\ne 0 0\n")
        code, _, err = run(capsys, "solve", "--input", str(path))
        assert code == 1
        assert "self-loop" in err

    def test_missing_source_exit_1(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 1
        assert "exactly one" in err

    def test_both_sources_exit_1(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("p 1 0\n")
        code, _, _ = run(
            capsys, "solve", "--input", str(path), "--generate", "paley3x3"
        )
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run(capsys, "solve", "--generate", "paley3x3", "--nope")
        assert code == 1

    def test_bad_spec_exit_1(self, capsys):
        code, _, err = run(capsys, "solve", "--generate", "torus:4")
        assert code == 1
        assert "unknown generator" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--generate", "paley3x3", "--json", "--dump-lp", "out"],
            ["verify", "--gen", "cycle:5", "imp.json", "--exhaustive", "--max-n", "9"],
            ["corpus", "--seed", "3", "--count", "2", "--include-imperfect"],
            ["solve", "--generate", "paley3x3", "--nope"],
            ["solve", "--generate", "paley3x3", "--", "extra"],
            ["verify", "--generate", "paley3x3"],
            ["corpus", "--count", "two"],
            ["check-perfect", "--max-n"],
        ],
    )
    def test_verb_subparser_parses_as_the_top_level_parser(self, argv):
        # main hands a known verb's arguments straight to its subparser.
        def parse(parser, args):
            try:
                return vars(parser.parse_args(args))
            except _InputError as exc:
                return str(exc)

        parser = build_parser()
        top = parse(parser, argv)
        if isinstance(top, dict):
            assert top.pop("command") == argv[0]
        assert parse(parser.verbs[argv[0]], argv[1:]) == top

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["--json"], "the following arguments are required: command"),
            (["solv"], "argument command: invalid choice: 'solv'"),
        ],
    )
    def test_no_known_verb_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    def test_closed_stdout_exits_quietly(self):
        # A pipe whose read end is already closed, as after `| head -1`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(cliquecore.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from cliquecore.cli import console_main; console_main()",
                 "cliques", "--generate", "chordal:25", "--seed", "1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""  # no BrokenPipeError traceback
        assert proc.returncode == 141
