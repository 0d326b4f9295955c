"""What the benchmark in perfbench/ needs of the library: the functions its
traced run wraps, and the keywords its workloads pass."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_function(span: str):
    module, attr = span.split(".")
    return getattr(importlib.import_module(f"wedgelab.{module}"), attr)


SPANS = load_spans().SPANS


@pytest.mark.parametrize("span", sorted(SPANS))
def test_span_resolves_to_library_function(span):
    assert callable(library_function(span))


def accepts(span: str, *names: str) -> bool:
    params = inspect.signature(library_function(span)).parameters
    return all(name in params for name in names)


def test_pair_scan_reports_its_info():
    assert accepts(load_spans().PAIR_SCAN, "return_info")


@pytest.mark.parametrize("kind", ["interior", "corner", "global"])
def test_estimate_ratios_accept_pair_budget(kind):
    assert accepts(f"analysis.estimate_ratio_{kind}", "pair_budget")


def test_solve_on_mesh_accepts_tolerance_and_iteration_cap():
    assert accepts("fem.solve_on_mesh", "tol", "max_iter")
