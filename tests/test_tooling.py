"""The benchmark harness in perfbench/ reaches into the package by name: the
traced run patches every `module.attr` in spans.BOUNDARIES, and the answer
checker builds elements as minmodel.AtomCode/PairCode.  A renamed or deleted
name would crash every benchmark run, so the names are checked here.  Runs
of the benchmark's worker with its answer checker, short ones and the whole
seed-1 search, member and certify streams, catch a change in output bytes
or a broken numeration round trip before a full benchmark run;
a traced run checks that the tracer's in-place wrapping of the evaluator
still fits it.  A lint-style check keeps the package's imports in use."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gml
import gml.cli  # noqa: F401  (the tracer patches names on gml.cli too)
from gml import minmodel

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
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
