"""What the benchmark in perfbench/ needs of the library: the functions its
traced run wraps, the names and keywords its workloads use, and an import
that stays light (its ``setup_s`` is mostly import time)."""

import ast
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
WORKLOADS_FILE = ROOT / "perfbench" / "workloads.py"


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


def workload_uses() -> dict[str, set[str]]:
    """Each ``<module>.<name>`` of wedgelab that the workloads file reads, with
    the keywords passed where it is called; ``**NAME`` of a module-level
    ``dict(...)`` passes that dict's keywords."""
    tree = ast.parse(WORKLOADS_FILE.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "wedgelab"
        for alias in node.names
    }
    dicts = {
        target.id: [kw.arg for kw in node.value.keywords]
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "dict"
        for target in node.targets
    }
    uses: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.setdefault(f"{node.value.id}.{node.attr}", set())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in uses:
            for kw in node.keywords:
                uses[ast.unparse(node.func)].update([kw.arg] if kw.arg else dicts[kw.value.id])
    return uses


USES = workload_uses()
CALLS = {name: keywords for name, keywords in USES.items() if keywords}


@pytest.mark.parametrize("name", sorted(USES))
def test_workload_name_resolves_in_library(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"wedgelab.{module}"), attr)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_workload_keywords_are_parameters(name):
    assert accepts(name, *sorted(CALLS[name]))


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
