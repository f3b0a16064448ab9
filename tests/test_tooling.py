"""The benchmark harness in perfbench/ reaches into the package by name: the
traced run patches every `module.attr` in spans.BOUNDARIES, and the answer
checker builds elements as minmodel.AtomCode/PairCode.  A renamed or deleted
name would crash every benchmark run, so the names are checked here.  Runs
of the benchmark's worker with its answer checker, short ones and the whole
seed-1 search, member and certify streams, catch a change in output bytes
or a broken numeration round trip before a full benchmark run;
a traced run checks that the tracer's in-place wrapping of the evaluator
still fits it.  Lint-style checks keep the package's imports in use and
every name it defines read somewhere, so a removal leaves no orphan."""

import ast
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gml
import gml.cli  # noqa: F401  (the tracer patches names on gml.cli too)
from gml import minmodel
import oracles

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SWEEP = ROOT / "tools" / "pruned_scan_sweep.py"
PACKAGE = ROOT / "src" / "gml"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_boundaries_resolve():
    for target, _ in load_spans().BOUNDARIES:
        module_name, attr = target.split(".")
        assert callable(getattr(getattr(gml, module_name), attr, None)), target


def test_checker_element_names_round_trip():
    atom = minmodel.AtomCode(2)
    pair = minmodel.PairCode(frozenset({atom}), atom)
    for e in (atom, pair):
        assert minmodel.element_decode(minmodel.element_code(e)) is e


def run_worker(tmp_path, workload, count, *extra) -> dict:
    """A worker run on the seed-1 stream, checked against the committed answers."""
    out = tmp_path / "run.json"
    expected = ROOT / "perfbench" / "expected" / f"{workload}.txt"
    argv = ["--root", ROOT, "--workload", workload, "--seed", 1, "--count", count,
            "--expected", expected, "--dir", tmp_path / "pairs", "--out", out, *extra]
    worker = [sys.executable, ROOT / "perfbench" / "worker.py"]
    subprocess.run([str(a) for a in worker + argv], check=True, timeout=300)
    doc = json.loads(out.read_text())
    assert len(doc["queries"]) == count
    assert [q for q in doc["queries"] if q[1] == "error"] == [], doc["errors"]
    return doc


@pytest.mark.parametrize(
    "workload, count",
    [
        ("numeration", 150),
        ("numeration", 1000),
        ("search", 60),
        ("search", 120),
        ("search", 1500),
        ("member", 14000),
        ("certify", 200),
        ("certify", 2400),
    ],
)
def test_benchmark_answers_check(tmp_path, workload, count):
    run_worker(tmp_path, workload, count)


def test_traced_run_counts_evaluator_calls(tmp_path):
    """The traced run also wraps Evaluator.__init__, contains and enumerate
    in place; the answers still check and the counters move."""
    layers = run_worker(tmp_path, "certify", 40, "--trace", tmp_path / "spans.jsonl")["layers"]
    assert layers["approximation.evaluators"]["value"] > 0
    assert layers["approximation.contains.calls"]["value"] > 0


def unused_imports(source: str) -> list[str]:
    """The names a module imports at module level and never reads, except on
    import statements marked `# noqa: F401` and `from __future__` imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa:" in line and "F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_module_imports(path):
    assert unused_imports((PACKAGE / path).read_text()) == []


def test_unused_import_check_sees_a_left_over_import():
    source = "import itertools\nfrom .completion import restrict  # noqa: E402,F401\nimport math\nmath.sqrt(2)\n"
    assert unused_imports(source) == ["itertools (line 1)"]


def module_definitions(source: str) -> list[str]:
    """The names a module defines at module level, dunders aside: its
    functions, classes and assignment targets."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def names_read(source: str) -> set[str]:
    """Every name a module reads: a name it loads, an attribute it takes, or
    a name it imports from another module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_package_definition_is_read():
    """A re-export in the package's __init__.py is not a read."""
    readers = [
        path
        for folder in (PACKAGE, ROOT / "tests", ROOT / "perfbench", ROOT / "tools")
        for path in sorted(folder.rglob("*.py"))
        if path != PACKAGE / "__init__.py"
    ]
    read = set().union(*(names_read(path.read_text()) for path in readers))
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in module_definitions(path.read_text())
        if name not in read
    ]
    assert unread == []


def test_definition_check_sees_an_orphan():
    source = "LIMIT = 3\n__all__ = []\n\ndef used():\n    return LIMIT\n\nclass Orphan:\n    pass\n\nused()\n"
    assert [n for n in module_definitions(source) if n not in names_read(source)] == ["Orphan"]


def test_sweep_and_its_slices_read_one_claim_table():
    """The differential sweep's claim sets are one table, oracles.CLAIM_SETS,
    compared through one comparator, oracles.compare: the sweep tool runs
    every case of each set, and each of the suite's four seeded slices
    samples one set's cases (oracles.sweep_cases)."""
    sizes = {name: len(claim_set.claims) for name, claim_set in oracles.CLAIM_SETS.items()}
    assert sizes == {"set-level": 72, "redex-free": 289, "beta-related": 176, "head-reaching": 380}
    tool = ast.parse(SWEEP.read_text())
    imported = {alias.name for node in tool.body if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names}
    assert {"CLAIM_SETS", "compare"} <= imported
    import test_approximation as suite

    assert suite.CLAIM_SETS is oracles.CLAIM_SETS and suite.sweep_cases is oracles.sweep_cases
    assert suite.compare is oracles.compare
    slices = {
        suite.TestPrunedInclusion.test_verdicts_match_full_scan: "set-level",
        suite.TestPrunedInclusion.test_redex_free_verdicts_match_full_scan: "redex-free",
        suite.TestBetaRelatedInclusion.test_verdicts_match_full_scan: "beta-related",
        suite.TestPrunedInclusion.test_head_reaching_verdicts_match_full_scan: "head-reaching",
    }
    for test, name in slices.items():  # each samples its set's cases and compares under that set
        source = inspect.getsource(test)
        assert f'sweep_cases(CLAIM_SETS["{name}"])' in source, name
        assert source.count("CLAIM_SETS[") == source.count(f'CLAIM_SETS["{name}"]') == 2, name
