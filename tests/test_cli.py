import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import gml
from gml.cli import COMMANDS, UsageError, main, parse_args
from gml.pairs import PartialPair
from gml.approximation import Evaluator
from oracles import build_parser, closed_terms_by_scan, cycles_left_by, print_by_cases


@pytest.fixture
def coded_file(pair_file, p1):
    return pair_file(p1, "p1.json")


@pytest.fixture
def free_file(pair_file, free1):
    return pair_file(free1, "free1.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


class TestParseReduce:
    def test_parse(self, capsys):
        code, doc = run_json(capsys, "parse", "\\x.(x) x")
        assert code == 0
        assert doc == {"term": "\\x.x x"}

    def test_parse_error_exits_two(self, capsys):
        code, out, err = run(capsys, "parse", "\\x.")
        assert code == 2
        assert not out and "position" in err

    def test_reduce(self, capsys):
        code, doc = run_json(capsys, "reduce", "--budget", "10", "I I")
        assert code == 0
        assert doc == {"status": "normal_form", "term": "\\x.x", "steps": 1}

    def test_reduce_budget(self, capsys):
        code, doc = run_json(capsys, "reduce", "--budget", "3", "Omega")
        assert doc["status"] == "budget_exceeded" and doc["steps"] == 3

    def test_reduce_grows_a_long_spine(self, capsys):
        """Each step adds an application to the reduct's spine; stepping and
        printing walk it in a loop, so a thousand steps answer."""
        code, doc = run_json(capsys, "reduce", "--budget", "1000", "(\\x.x x x)(\\x.x x x)")
        assert code == 0
        assert doc["status"] == "budget_exceeded" and doc["steps"] == 1000
        assert doc["term"] == " ".join(["(\\x.x x x)"] * 1002)


class TestInterp:
    def test_atoms_output(self, capsys, coded_file):
        code, doc = run_json(capsys, "interp", "--pair", coded_file, "I")
        assert code == 0
        assert doc == {"atoms": ["0"]}

    def test_with_env_file(self, capsys, coded_file, tmp_path):
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps({"env": [{"var": "x", "atoms": ["0"]}]}))
        code, doc = run_json(capsys, "interp", "--pair", coded_file, "--env", str(env_path), "x")
        assert doc == {"atoms": ["0"]}

    def test_missing_pair_is_usage_error(self, capsys):
        code, out, err = run(capsys, "interp", "I")
        assert code == 2

    def test_labeled_atoms_exact_bytes(self, capsys, tmp_path):
        path = tmp_path / "labeled.json"
        path.write_text(
            '{"atoms": ["a0"], "coding": [{"args": ["a0"], "res": "a0", "val": "a0"}]}'
        )
        code, out, _ = run(capsys, "--json", "interp", "--pair", str(path), "I")
        assert code == 0
        assert out == '{"atoms":["a0"]}\n'


class TestComplete:
    def test_count(self, capsys, free_file):
        code, doc = run_json(capsys, "complete", "--pair", free_file, "--rank", "2", "--count")
        assert code == 0
        assert doc == {"count": 25}

    def test_elements_listing(self, capsys, free_file):
        code, doc = run_json(capsys, "complete", "--pair", free_file, "--rank", "1")
        assert doc["elements"] == ["0", "({},0)", "({0},0)"]

    def test_ceiling_is_a_domain_failure(self, capsys, free_file):
        code, out, err = run(capsys, "complete", "--pair", free_file, "--rank", "5", "--count")
        assert code == 1
        assert "bound too large" in err and not out

    def test_refusal_states_the_level_size_as_a_power(self, capsys, pair_file, free2):
        """Every level is counted before any is built, and the refused level's
        size is written as 2^m·m plus the uncoded atoms, not in full."""
        code, out, err = run(capsys, "--json", "complete", "--pair", pair_file(free2), "--rank", "3", "--count")
        assert code == 1 and not out
        assert err.splitlines()[-1] == (
            "bound too large: level 3 would hold 2^10242·10242+2 elements, ceiling is 1000000"
        )
        assert len(err.encode()) < 200


class TestMemberWitness:
    def test_member_found(self, capsys, free_file):
        code, doc = run_json(capsys, "member", "--pair", free_file, "--rank", "2", "I", "({0},0)")
        assert code == 0
        assert doc == {"found": True, "rank": 1, "bound": 2}

    def test_member_not_found_exits_one(self, capsys, free_file):
        code, out, _ = run(capsys, "--json", "member", "--pair", free_file, "--rank", "3", "Omega", "0")
        assert code == 1
        assert json.loads(out) == {"found": False, "bound": 3}

    def test_witness(self, capsys, free_file):
        code, doc = run_json(capsys, "witness", "--pair", free_file, "--rank", "2", "I", "({0},0)")
        assert code == 0
        assert doc["found"] and doc["rank"] == 1
        loaded = PartialPair.from_json(doc["witness_subpair"])
        assert len(loaded.atoms) == 2

    def test_witness_is_walked_on_the_probe_that_found_it(self, capsys, monkeypatch, free_file):
        """One evaluator per probed rank: the probe that finds the element
        also walks its witness."""
        ranks = []
        init = Evaluator.__init__

        def counted(self, pair, k):
            ranks.append(k)
            init(self, pair, k)

        monkeypatch.setattr(Evaluator, "__init__", counted)
        code, doc = run_json(capsys, "witness", "--pair", free_file, "--rank", "2", "\\x.x", "({0},0)")
        assert code == 0 and doc["rank"] == 1 and ranks == [1]
        ranks.clear()
        code, doc = run_json(capsys, "witness", "--pair", free_file, "--rank", "3", "(\\x.x) (\\y.y)", "({0},0)")
        assert code == 0 and doc["rank"] == 2 and ranks == [1, 2]

    def test_witness_leaves_no_reference_cycle(self, capsys, free_file):
        argv = ["--json", "witness", "--pair", free_file, "--rank", "3", "(\\x.x) (\\y.y)", "({0},0)"]
        assert cycles_left_by(lambda: main(argv)) == []
        assert json.loads(capsys.readouterr().out)["found"]


class TestThreeAtomWitness:
    def test_rank_two_abstraction_answers(self, capsys, pair_file):
        free3 = pair_file(PartialPair({0, 1, 2}, labels={0: "a", 1: "b", 2: "c"}), "free3.json")
        code, doc = run_json(capsys, "witness", "--pair", free3, "--rank", "2", "\\x.x", "({({a},a)},({a},a))")
        assert code == 0
        assert doc["found"] and doc["rank"] == 2
        assert doc["witness_subpair"] == {
            "atoms": ["({a},a)", "({({a},a)},({a},a))"],
            "coding": [{"args": ["({a},a)"], "res": "({a},a)", "val": "({({a},a)},({a},a))"}],
        }

    def test_rank_two_redex_answers(self, capsys, pair_file):
        free3 = pair_file(PartialPair({0, 1, 2}, labels={0: "a", 1: "b", 2: "c"}), "free3.json")
        code, doc = run_json(capsys, "witness", "--pair", free3, "--rank", "2", "(\\x.x) (\\y.y)", "({a},a)")
        assert code == 0
        assert doc["found"] and doc["rank"] == 2
        assert doc["witness_subpair"] == {
            "atoms": ["a", "({a},a)", "({({a},a)},({a},a))"],
            "coding": [
                {"args": ["a"], "res": "a", "val": "({a},a)"},
                {"args": ["({a},a)"], "res": "({a},a)", "val": "({({a},a)},({a},a))"},
            ],
        }


class TestMalformedInput:
    def assert_usage_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert not out
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_unknown_env_label(self, capsys, coded_file, tmp_path):
        env = self.write(tmp_path, "env.json", {"env": [{"var": "x", "atoms": ["nope"]}]})
        self.assert_usage_error(capsys, "interp", "--pair", coded_file, "--env", env, "x")

    def test_env_entry_without_var(self, capsys, coded_file, tmp_path):
        env = self.write(tmp_path, "env.json", {"env": [{"atoms": ["0"]}]})
        self.assert_usage_error(capsys, "interp", "--pair", coded_file, "--env", env, "x")

    def test_env_extra_top_level_key(self, capsys, coded_file, tmp_path):
        env = self.write(tmp_path, "env.json", {"env": [], "extra": 1})
        self.assert_usage_error(capsys, "interp", "--pair", coded_file, "--env", env, "x")

    def test_env_label_not_a_string(self, capsys, coded_file, tmp_path):
        env = self.write(tmp_path, "env.json", {"env": [{"var": "x", "atoms": [["a"]]}]})
        self.assert_usage_error(capsys, "interp", "--pair", coded_file, "--env", env, "x")

    def test_atoms_not_a_list(self, capsys, tmp_path):
        pair = self.write(tmp_path, "pair.json", {"atoms": 5})
        self.assert_usage_error(capsys, "interp", "--pair", pair, "I")

    def test_non_injective_pair_rejected(self, capsys, tmp_path):
        pair = self.write(
            tmp_path,
            "pair.json",
            {
                "atoms": ["a", "b"],
                "coding": [
                    {"args": ["a"], "res": "a", "val": "b"},
                    {"args": ["b"], "res": "b", "val": "b"},
                ],
            },
        )
        self.assert_usage_error(capsys, "interp", "--pair", pair, "I")
        self.assert_usage_error(capsys, "complete", "--pair", pair, "--rank", "1")
        self.assert_usage_error(capsys, "member", "--pair", pair, "I", "a")

    def test_directory_for_a_pair_file(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "interp", "--pair", str(tmp_path), "x")
        self.assert_usage_error(capsys, "pair", "union", str(tmp_path), str(tmp_path))

    def test_negative_rank(self, capsys, free_file):
        for command in ("member", "witness"):
            self.assert_usage_error(capsys, command, "--pair", free_file, "--rank", "-1", "\\x.x", "0")

    def test_negative_max_index(self, capsys):
        self.assert_usage_error(capsys, "minmodel", "search", "--max-index", "-5", "\\x.x <= \\x.x x")

    def assert_too_deep(self, capsys, *argv):
        assert run(capsys, *argv) == (2, "", "usage error: input nested too deeply\n")

    def test_deeply_nested_term(self, capsys):
        self.assert_too_deep(capsys, "parse", "(" * 3000 + "x" + ")" * 3000)

    def test_deeply_nested_element(self, capsys, coded_file):
        element = "({" * 3000 + "0" + "},0)" * 3000
        self.assert_too_deep(capsys, "member", "--pair", coded_file, "I", element)
        self.assert_too_deep(capsys, "witness", "--pair", coded_file, "I", element)

    def test_deeply_nested_files(self, capsys, coded_file, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        self.assert_too_deep(capsys, "pair", "validate", "--pair", str(deep))
        self.assert_too_deep(capsys, "interp", "--pair", coded_file, "--env", str(deep), "x")

    def test_recursion_after_parsing_is_a_bound(self, capsys, free_file):
        """A term the parser reads but whose evaluation nests past the
        recursion limit is refused as a bound, not as a usage error."""
        spine = " ".join(["y"] * 3000)
        limit = sys.getrecursionlimit()
        refused = (1, "", f"bound too large: nesting past the recursion limit of {limit}\n")
        assert run(capsys, "parse", f"\\x y.x {spine}")[0] == 0
        assert run(capsys, "check", "--pair", free_file, f"\\x y.x {spine} <= \\x.x") == refused
        assert run(capsys, "interp", "--pair", free_file, f"x {spine}") == refused


class TestCheck:
    def test_equation_failure_exits_one(self, capsys, coded_file):
        code, doc = run_json(capsys, "check", "--pair", coded_file, "--kM", "2", "--kN", "4", "T = F")
        # run again via plain main to see the exit code
        assert doc["kind"] == "fails_with_evidence"
        assert main(["--json", "check", "--pair", coded_file, "--kM", "2", "--kN", "4", "T = F"]) == 1

    def test_inequation_form(self, capsys, coded_file):
        code, doc = run_json(capsys, "check", "--pair", coded_file, "--kM", "2", "--kN", "4", "T <= F")
        assert code == 1
        assert doc["kind"] == "fails_with_evidence"
        assert doc["witness"] == "({0},({},0))"

    def test_holds_exits_zero(self, capsys, free_file):
        code, doc = run_json(capsys, "check", "--pair", free_file, "--kM", "2", "--kN", "4", "I = I")
        assert code == 0
        assert doc["kind"] == "holds_up_to"

    def test_malformed_claim(self, capsys, coded_file):
        code, _, err = run(capsys, "check", "--pair", coded_file, "T F")
        assert code == 2


class TestPairCommands:
    def test_validate_ok(self, capsys, coded_file):
        code, doc = run_json(capsys, "pair", "validate", "--pair", coded_file)
        assert code == 0 and doc == {"ok": True, "violations": []}

    def test_validate_violations_exit_one(self, capsys, tmp_path):
        bad = {
            "atoms": ["a", "b"],
            "coding": [
                {"args": ["a"], "res": "a", "val": "b"},
                {"args": ["b"], "res": "b", "val": "b"},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, doc = run_json(capsys, "pair", "validate", "--pair", str(path))
        assert code == 1
        assert not doc["ok"] and doc["violations"]

    def test_auts_and_orbits(self, capsys, pair_file, free2):
        path = pair_file(free2, "free2.json")
        code, doc = run_json(capsys, "pair", "auts", "--pair", path)
        assert doc["count"] == 2
        code, doc = run_json(capsys, "pair", "orbits", "--pair", path)
        assert doc == {"orbits": [["0", "1"]]}

    def test_exhaustive_bounds_refuse_once(self, pair_file, free2):
        """In a fresh process, a refused automorphism search or completion
        level exits 1 with one stderr line and nothing on stdout."""
        env = {**os.environ, "PYTHONPATH": str(Path(gml.__file__).parents[1])}
        nine = pair_file(PartialPair(range(9)), "nine.json")
        auts = "bound too large: automorphisms of 9 atoms take 9!·9 checks, ceiling is 1000000\n"
        level = "bound too large: level 3 would hold 2^10242·10242+2 elements, ceiling is 1000000\n"
        for argv, err in (
            (["pair", "auts", "--pair", nine], auts),
            (["pair", "orbits", "--pair", nine], auts),
            (["complete", "--pair", pair_file(free2, "free2.json"), "--rank", "3"], level),
        ):
            done = subprocess.run(
                [sys.executable, "-m", "gml.cli", *argv],
                capture_output=True, encoding="utf-8", env={**env, "PYTHONIOENCODING": "utf-8"}, timeout=60,
            )
            assert (done.returncode, done.stdout, done.stderr) == (1, "", err), argv

    def test_union(self, capsys, pair_file):
        a = pair_file(PartialPair({0}, {(frozenset({0}), 0): 0}), "a.json")
        b = pair_file(PartialPair({0}), "b.json")
        code, doc = run_json(capsys, "pair", "union", a, b)
        assert code == 0
        assert doc["coding"] == [{"args": ["0"], "res": "0", "val": "0"}]


class TestMinmodel:
    def test_search_finds_and_exits_one(self, capsys):
        code, doc = run_json(capsys, "minmodel", "search", "--max-index", "20", "T <= F")
        assert code == 1
        assert doc["found"] and doc["verdict"]["kind"] == "fails_with_evidence"

    def test_equation_search_reports_least_component(self, capsys):
        # \a b c.c <= \a.a first fails at component 3, the reverse at 1
        code, doc = run_json(capsys, "minmodel", "search", "--max-index", "20", "\\a b c.c = \\a.a")
        assert code == 1 and doc["component"] == 1
        assert doc["verdict"]["inequation"] == {"lhs": "\\a.a", "rhs": "\\a b c.c"}

    def test_equation_search_tie_keeps_forward_verdict(self, capsys):
        # both inclusions first fail at component 1
        code, doc = run_json(capsys, "minmodel", "search", "--max-index", "20", "\\a b.a = \\a b.b")
        assert code == 1 and doc["component"] == 1
        assert doc["verdict"]["inequation"] == {"lhs": "\\a b.a", "rhs": "\\a b.b"}

    def test_search_none_exits_zero(self, capsys):
        code, doc = run_json(capsys, "minmodel", "search", "--max-index", "5", "I <= I")
        assert code == 0
        assert doc == {"found": False, "max_index": 5}

    def test_pair_export(self, capsys):
        code, doc = run_json(capsys, "minmodel", "pair", "3")
        assert code == 0
        assert doc == {"atoms": ["5"], "coding": [{"args": ["5"], "res": "5", "val": "5"}]}

    def test_pair_past_prime_ceiling_refused(self, capsys):
        code, out, err = run(capsys, "minmodel", "pair", "100000000")
        lines = err.splitlines()
        assert code == 1 and not out
        assert len(lines) == 1 and lines[0].startswith("bound too large:")


class TestOneCeiling:
    """Every exhaustive bound reads pairs.DEFAULT_CEILING when its guard
    runs, so lowering that one attribute refuses each of these commands, and
    each answers at the default ceiling."""

    def test_lowered_ceiling_refuses_at_every_guard(self, capsys, monkeypatch, pair_file, free_file, coded_file):
        three = pair_file(PartialPair(range(3)), "three.json")
        cases = [
            (["complete", "--pair", free_file, "--rank", "2"], "level 2 would hold 2^3·3+1 elements, ceiling is 10"),
            (["check", "--pair", free_file, "\\x.x <= \\x.x"], "abstraction over level 1 needs 2^3·3 keys, ceiling is 10"),
            (["witness", "--pair", coded_file, "(\\x.x) (\\x y.y)", "({},0)"],
             "redex key search over 2 candidate arguments probes more than 10 elements"),
            (["pair", "auts", "--pair", three], "automorphisms of 3 atoms take 3!·3 checks, ceiling is 10"),
            (["enum-terms", "20"], "20 terms asked for, ceiling is 10"),
            (["reduce", "--budget", "20", "Omega"], "20 steps asked for, ceiling is 10"),
            (["minmodel", "pair", "20"], "prime number 20 is past the ceiling of 10 primes"),
        ]
        for argv, _ in cases:
            assert run(capsys, *argv)[0] == 0, argv
        monkeypatch.setattr(gml.pairs, "DEFAULT_CEILING", 10)
        for argv, message in cases:
            assert run(capsys, *argv) == (1, "", f"bound too large: {message}\n"), argv

    def test_abstraction_guard_boundary(self, capsys, monkeypatch, free_file):
        """Over one free atom, level 1 holds 3 elements and so 2^3·3 = 24 keys:
        the abstraction answers at a ceiling of 24 and is refused at 23."""
        argv = ("check", "--pair", free_file, "\\x.x <= \\x.x")
        monkeypatch.setattr(gml.pairs, "DEFAULT_CEILING", 24)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(gml.pairs, "DEFAULT_CEILING", 23)
        assert run(capsys, *argv) == (1, "", "bound too large: abstraction over level 1 needs 2^3·3 keys, ceiling is 23\n")


class TestEnumTerms:
    def test_listing(self, capsys):
        code, doc = run_json(capsys, "enum-terms", "4")
        assert code == 0
        assert doc["terms"][0] == "\\a.a"
        assert len(doc["terms"]) == 4

    def test_long_listing_matches_the_scan(self, capsys):
        code, out, _ = run(capsys, "--json", "enum-terms", "20000")
        texts = [print_by_cases(t) for t in closed_terms_by_scan(20000)]
        assert code == 0
        assert out == json.dumps({"terms": texts}, separators=(",", ":")) + "\n"

    def test_limit_past_ceiling_is_refused(self, capsys):
        code, out, err = run(capsys, "enum-terms", "100000000")
        assert code == 1 and not out
        assert err == "bound too large: 100000000 terms asked for, ceiling is 1000000\n"

    def test_negative_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "enum-terms", "--", "-1")
        assert code == 2 and not out
        assert err == "usage error: limit must be non-negative\n"


class TestOutputContract:
    def test_json_flag_gives_json(self, capsys, free_file):
        code, out, _ = run(capsys, "--json", "complete", "--pair", free_file, "--rank", "2", "--count")
        assert out.strip() == '{"count":25}'

    def test_plain_output_is_not_json(self, capsys, free_file):
        code, out, _ = run(capsys, "complete", "--pair", free_file, "--rank", "2", "--count")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "count: 25" in out

    def test_deterministic_bytes(self, capsys, coded_file):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "--json", "check", "--pair", coded_file, "--kM", "2", "--kN", "4", "T = F")
            outs.add(out)
        assert len(outs) == 1

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_calls_in_one_process_match_fresh_processes(self, capsys, coded_file):
        """Calls share one parser; no flag or parsed value carries over."""
        env = {**os.environ, "PYTHONPATH": str(Path(gml.__file__).parents[1])}
        for argv in (
            ["--json", "check", "--pair", coded_file, "T <= F"],
            ["check", "--pair", coded_file, "T <= F"],
            ["check", "--pair", coded_file, "--kM", "two", "I <= I"],
            ["parse", "\\x.(x) x"],
        ):
            code, out, _ = run(capsys, *argv)
            alone = subprocess.run(
                [sys.executable, "-m", "gml.cli", *argv], capture_output=True, text=True, env=env, timeout=60
            )
            assert (code, out) == (alone.returncode, alone.stdout), argv


# Words a command line is made of: values of every shape the parser treats
# differently (negative numbers, words with a space or a leading dash, "--",
# the empty word) and option words: flags, unique and ambiguous prefixes,
# "=" forms, unknown options and help requests.
VALUES = ("1", "-1", "x", "", "--", "-", "--x y", "-x y", "T <= F", "I", "0", "f.json",
          "1.5", "-1.5", " 7 ", "-.5", "5_0", "+3", "-0", "-h x", "-hx")
FLAGS = ("--pair", "--env", "--rank", "--count", "--kM", "--kN", "--budget", "--max-index", "--json",
         "--max", "--k", "--r", "--c", "--p", "--pai", "--e", "--b", "--bogus", "-x", "--j", "-h",
         "--help", "--he", "--=1", "--pair=f", "--rank=3", "--rank=-2", "--kM=x", "--count=",
         "--count=1", "--m=7", "--k=2", "--json=1")
WORDS = ("parse", "reduce", "interp", "complete", "member", "witness", "check", "enum-terms", "pair",
         "minmodel", "validate", "auts", "orbits", "union", "search", "frobnicate", "--")


def argument_corpus() -> list[list[str]]:
    """Hand-picked command lines, then seeded ones: every command with its
    options in any order, as "--opt value" or "--opt=value", prefixed or
    repeated, its positionals too few, right or too many, with "--" placed
    anywhere; and free mixes of command, option and value words."""
    corpus = [
        [], ["--json"], ["pair"], ["minmodel"], ["pair", "bogus"], ["minmodel", "--max-index", "3"],
        ["frobnicate"], ["--", "parse", "x"], ["pair", "--", "union", "a", "b"], ["--j", "parse", "x"],
        ["--json=1", "parse", "x"], ["check", "--json", "c"], ["parse", "--=x", "x"],
        ["check", "--k", "1", "c"], ["check", "--kM=", "c"], ["check", "--pair=", "c"],
        ["check", "--pair", "--kM", "c"], ["check", "--pair", "--", "c"], ["check", "--pair"],
        ["check", "--pair", "--x y", "c"], ["check", "--pair", "-h x", "c"],
        ["member", "--rank", "-1", "I", "0"], ["member", "--rank", "two", "I", "0"],
        ["enum-terms", "-1"], ["enum-terms", "--", "-1"], ["enum-terms", "5", "--"],
        ["enum-terms", "--", "5", "--"], ["complete", "--pair", "f", "--"], ["parse", "x", "--"],
        ["member", "I", "--", "0"], ["member", "--", "--", "I"], ["check", "--", "--json"],
        ["reduce", "--b", "3", "x"], ["minmodel", "search", "--max", "3", "--max-index=4", "c"],
        ["minmodel", "search", "--m", "3", "c"], ["minmodel", "pair", "x"], ["minmodel", "pair", "-3"],
        ["pair", "union", "a"], ["pair", "union", "a", "b", "c"], ["complete", "--count", "--count"],
        ["complete", "--rank", "1", "--rank", "3"], ["parse", "x", "y"], ["complete", "--bogus", "-h"],
        ["check", "-h", "--k"], ["enum-terms", "x", "-h"], ["enum-terms", "-h", "x"], ["-h", "frobnicate"],
        ["pair", "-h"], ["minmodel", "search", "--help"], ["check", "--he"], ["check", "--pair=--", "c"],
        ["member", "--rank=--", "I", "0"], ["pair", "union", "--", "a", "--"],
    ]
    rng = Random(17)
    for _ in range(2000):
        words, _, options, positionals = rng.choice(COMMANDS)
        parts = []
        for flag, kind, _ in options:
            for _ in range(rng.choice((0, 1, 1, 2))):
                name = flag[: rng.randint(3, len(flag))] if rng.random() < 0.3 else flag
                value = rng.choice(VALUES)
                if kind is bool:
                    parts.append([name])
                else:
                    # "--opt=--" is left to the hand-picked lines, see test_matches_argparse
                    parts.append([f"{name}={value}"] if value != "--" and rng.random() < 0.3 else [name, value])
        parts += [[rng.choice(VALUES)] for _ in range(len(positionals) + rng.choice((-1, 0, 0, 0, 1)))]
        if rng.random() < 0.5:
            rng.shuffle(parts)
        line = [word for part in parts for word in part]
        if rng.random() < 0.3:
            line.insert(rng.randint(0, len(line)), "--")
        corpus.append(["--json"] * (rng.random() < 0.3) + words.split() + line)
    for _ in range(2000):
        line = ["--json"] * (rng.random() < 0.3) + rng.sample(WORDS, rng.randint(0, 2))
        if rng.random() < 0.9:
            line = line[: rng.randint(0, 1)] + rng.choice(COMMANDS)[0].split()
        corpus.append(line + [rng.choice(FLAGS if rng.random() < 0.4 else VALUES) for _ in range(rng.randint(0, 6))])
    return corpus


class TestArgumentTable:
    """parse_args reads every command line as the argparse parser it
    replaced (tests/oracles.py::build_parser) does."""

    INTEGERS = {"rank", "kM", "kN", "budget", "max_index", "limit", "index"}

    def test_matches_argparse(self, capsys):
        """An accepted line gives the oracle's attributes and values, a
        rejected one exits 2 with one usage error line, and a help request
        is read as one wherever the oracle reads it so.  One argparse fault
        is not copied: a value that is the word "--" (as in "--pair=--" or
        a second positional after "--") reaches argparse's handlers as [];
        here it is the word itself, or an error where an integer is due.  A
        later repeat of the option would hide that [], so the seeded lines
        give no option "=--"."""
        oracle = build_parser()
        counts = {"accepted": 0, "rejected": 0, "help": 0}
        for argv in argument_corpus():
            try:
                with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
                    want = vars(oracle.parse_args(argv))
            except SystemExit as exc:
                want = exc.code
            if want == 0:
                counts["help"] += 1
                assert parse_args(argv) is None, argv
            elif isinstance(want, dict):
                counts["accepted"] += 1
                dashes = [key for key, value in want.items() if value == []]
                if self.INTEGERS.intersection(dashes):
                    with pytest.raises(UsageError):
                        parse_args(argv)
                    continue
                assert vars(parse_args(argv)) == {**want, **dict.fromkeys(dashes, "--")}, argv
            else:
                counts["rejected"] += 1
                with pytest.raises(UsageError):
                    parse_args(argv)
                code, out, err = run(capsys, *argv)
                assert code == 2 and not out, argv
                assert err.startswith("usage error: ") and err.count("\n") == 1, argv
        assert min(counts.values()) > 100, counts

    def test_help_lists_every_command(self, capsys):
        for argv in (["-h"], ["--json", "--help"], ["check", "-h"], ["pair", "union", "--help"]):
            code, out, err = run(capsys, *argv)
            assert code == 0 and not err
            assert out.startswith("usage: gml")
            for words, text, _, _ in COMMANDS:
                assert f"  {words} " in out and text in out, words

    def test_import_leaves_out_argparse(self):
        env = {**os.environ, "PYTHONPATH": str(Path(gml.__file__).parents[1])}
        probe = "import sys, gml.cli; print('argparse' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert out.stdout == "False\n", out.stderr
