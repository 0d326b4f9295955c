"""What the benchmark in perfbench/ needs of the library: the functions its
traced run wraps, the keywords its workloads pass, and an import that stays
light (its ``setup_s`` is mostly import time)."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "perfbench" / "spans.py"


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


def test_import_loads_no_scipy_optimize():
    # scipy.optimize is imported where a root is found; at import time it would add 0.1-0.2 s
    code = (
        "import sys, wedgelab, wedgelab.acceptance, wedgelab.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.strip() == "[]"
