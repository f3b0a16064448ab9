"""The benchmark harness in perfbench/ reaches into the package by name: the
traced run patches every `module.attr` in spans.BOUNDARIES, and the answer
checker builds elements as minmodel.AtomCode/PairCode.  A renamed or deleted
name would crash every benchmark run, so the names are checked here."""

import importlib.util
from pathlib import Path

import gml
import gml.cli  # noqa: F401  (the tracer patches names on gml.cli too)
from gml import minmodel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
