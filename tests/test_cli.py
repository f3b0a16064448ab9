import json

import pytest

from gml.cli import main
from gml.pairs import PartialPair


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

    def test_search_none_exits_zero(self, capsys):
        code, doc = run_json(capsys, "minmodel", "search", "--max-index", "5", "I <= I")
        assert code == 0
        assert doc == {"found": False, "max_index": 5}

    def test_pair_export(self, capsys):
        code, doc = run_json(capsys, "minmodel", "pair", "3")
        assert code == 0
        assert doc == {"atoms": ["5"], "coding": [{"args": ["5"], "res": "5", "val": "5"}]}


class TestEnumTerms:
    def test_listing(self, capsys):
        code, doc = run_json(capsys, "enum-terms", "4")
        assert code == 0
        assert doc["terms"][0] == "\\a.a"
        assert len(doc["terms"]) == 4


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
