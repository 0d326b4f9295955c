"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function by a wrapper in every module
namespace that holds it (``fem.generate_mesh`` as well as
``geometry.generate_mesh``), so calls one module makes into another are
recorded too.  A span is ``[name, start, end, parent]``; spans and counts
stay in memory until the run writes them out.  ``uninstall`` restores the
originals.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

def _count_mesh(counts, mesh):
    counts["geometry.n_vertices"] += mesh.n_vertices
    counts["geometry.n_triangles"] += mesh.n_triangles


def _count_system(counts, system):
    counts["fem.nnz"] += system.matrix.nnz
    counts["fem.n_free"] += system.n_free


def _count_cg(counts, result):
    counts["fem.cg_iterations"] += result[1].iterations


def _count_flux(counts, report):
    counts["analysis.flux_edges"] += report.n_edges


PAIR_SCAN = "norms.weighted_seminorm_kalpha"  # counted by its own wrapper

# span name "<module>.<function>" -> count hook called with the result, or None
SPANS = {
    "geometry.generate_mesh": _count_mesh,
    "geometry.generate_nonobtuse_mesh": _count_mesh,
    "geometry.refine_regular": None,
    "geometry.validate_mesh": None,
    "fem.solve_problem": None,
    "fem.solve_on_mesh": None,
    "fem.assemble": _count_system,
    "fem.solve_cg": _count_cg,
    "fem.element_gradients": None,
    "fem.error_report": None,
    "fem.solution_field": None,
    "analysis.fit_corner_exponent": None,
    "analysis.interface_flux_jump": _count_flux,
    "analysis.estimate_ratio_interior": None,
    "analysis.estimate_ratio_corner": None,
    "analysis.estimate_ratio_global": None,
    "norms.weighted_norm": None,
    "norms.plain_norm": None,
    "norms.weighted_seminorm_k0": None,
    PAIR_SCAN: None,
    "exact_solutions.eval_separable_xy": None,
    "exact_solutions.grad_separable_xy": None,
}


class Tracer:
    """Collects spans and counts between ``begin_pass`` and ``end_pass``.

    Outside a pass the wrappers only call through.
    """

    def __init__(self, modules):
        self.modules = modules  # {"geometry": module, ...}: namespaces to patch
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.passes: list[tuple[list, dict]] = []  # (spans, counts) per finished pass
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin_pass(self) -> None:
        self.spans, self.counts = [], defaultdict(float)
        self.active = True

    def end_pass(self) -> None:
        self.active = False
        self.passes.append((self.spans, dict(self.counts)))

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn, count):
        tracer = self
        if name == PAIR_SCAN:
            return self._wrap_pair_scan(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, result)
            return result

        return wrapper

    def _wrap_pair_scan(self, name: str, fn):
        """Asks the scan for its ``PairScanInfo`` and hands the caller what it asked for."""
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            wanted = bool(bound.arguments.get("return_info", False))
            bound.arguments["return_info"] = True
            idx = tracer._open(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                tracer._close(idx)
            tracer.counts["norms.pair_scans"] += 1
            n = bound.args[0].n  # the sampled field
            tracer.counts["norms.pairs_possible"] += n * (n - 1) // 2
            value, info = result
            tracer.counts["norms.pairs_evaluated"] += info.n_pairs
            return (value, info) if wanted else value

        return wrapper

    def install(self) -> None:
        for span, count in SPANS.items():
            owner_name, attr = span.split(".")
            original = getattr(self.modules[owner_name], attr)
            wrapper = self._wrap(span, original, count)
            for module in self.modules.values():
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return dict(out)
