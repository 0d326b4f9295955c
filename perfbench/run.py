"""wedgelab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones (``run_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones, from a run that wraps the library's public functions in spans.  An
operation is one pass of the workload; it fails when a call raises or a
gate of the acceptance battery fails.  Run metadata, pass times and (traced)
spans go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
SETUP_REPEATS = 3
MIN_TRACED_PASSES = 2  # the count metrics must repeat, so the traced run needs two

# One BLAS/OpenMP thread: the pipeline is single-threaded Python around
# vector operations of at most ~10^5 entries, and on a 2-core machine two
# OpenBLAS threads made Jacobi-CG at h = 1/180 about 20 % slower and noisier.
# A fixed string-hash seed makes the heap layout, hence peak RSS, repeat: with
# random hashing, one seed's peak RSS moved by 10 % between runs.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_METRICS = (
    "geometry.n_vertices", "geometry.n_triangles", "fem.cg_iterations", "fem.n_free", "fem.nnz",
    "analysis.flux_edges", "norms.pair_scans", "norms.pairs_evaluated",
)
ACCURACY_METRICS = ("fem.rel_residual", "beta_err", "linf_err", "norm_rel_gap")


def pin_environment() -> None:
    """Re-execute this process (same pid) once with ``PINNED_ENV``; before numpy is imported."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_reference(wl) -> list[float]:
    """All-pairs values for the workload's cloud, cached under a fingerprint of its inputs."""
    key = wl.reference_key()
    if key is None:
        return []
    path = BENCH_DIR / "cache" / f"{key}.json"
    if path.is_file():
        return json.loads(path.read_text())["values"]
    t0 = time.perf_counter()
    values = wl.reference()
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"values": values, "seconds": time.perf_counter() - t0}))
    tmp.replace(path)
    return values


def measure(wl, seconds: float, min_passes: int, reference, tracer=None) -> dict:
    """Timed passes until their summed time reaches ``seconds``.

    Each pass is checked (and, when traced, summarised) after its timer
    stops, then dropped, so peak RSS does not grow with the number of passes.
    A pass fails when it raises or a gate fails.
    """
    res = dict(times=[], failed=0, problems=[], accuracy=[])
    while len(res["times"]) < min_passes or sum(res["times"]) < seconds:
        out = None  # drop the previous pass's output before this pass allocates
        if tracer is not None:
            tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            out = wl.run_pass()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
        res["times"].append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_pass()
        if out is None:
            res["failed"] += 1
            continue
        bad = wl.check(out, reference)
        res["problems"] += [f"pass {len(res['times'])}: {p}" for p in bad]
        res["failed"] += bool(bad)
        if tracer is not None:
            res["accuracy"].append({**wl.accuracy(out, reference), "fem.rel_residual": out.max_rel_residual()})
    return res


def main(argv=None) -> int:
    pin_environment()
    if not (ROOT / "src" / "wedgelab" / "__init__.py").is_file():
        print(f"wedgelab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import scipy

    import spans as tracing
    import wedgelab
    from wedgelab import analysis, exact_solutions, fem, geometry, norms
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    args = parse_args(argv, WORKLOADS)

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed)
        wl.warm()
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)
    reference = load_reference(wl)

    record = {}
    if args.trace:
        tracer = tracing.Tracer(
            dict(geometry=geometry, fem=fem, analysis=analysis, norms=norms, exact_solutions=exact_solutions)
        )
        tracer.install()
        res = measure(wl, args.seconds, MIN_TRACED_PASSES, reference, tracer)
        tracer.uninstall()
        # one untraced pass after the traced ones, so both run warm
        untraced = measure(wl, 0.0, 1, reference)
        metrics, trace_problems = traced_metrics(wl, tracing, tracer.passes, res, untraced["times"][0])
        res["problems"] += untraced["problems"] + trace_problems
        res["failed"] += untraced["failed"]
        attempted = len(res["times"]) + 1
        record.update(spans=[s for s, _ in tracer.passes], counts=[c for _, c in tracer.passes])
    else:
        res = measure(wl, args.seconds, 1, reference)
        metrics = {"run_s": statistics.median(res["times"]), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        attempted = len(res["times"])

    meta = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_sha=git_sha(), python=sys.version.split()[0], numpy=np.__version__,
        scipy=scipy.__version__, wedgelab=wedgelab.__version__, nproc=NPROC, env=PINNED_ENV,
        pass_times_s=res["times"], setup_builds_s=builds, import_s=import_s,
    )
    record.update(meta=meta, problems=res["problems"], metrics=metrics)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for p in res["problems"]:
        print(f"FAIL {p}", file=sys.stderr)
    correct = not res["problems"] and res["failed"] == 0
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def traced_metrics(wl, tracing, passes, res, untraced_s):
    """Per-layer metrics: medians over traced passes of self time per span, and counts."""
    problems = []
    selfs = [tracing.self_times(spans) for spans, _ in passes]
    for i, st in enumerate(selfs):
        missing = [s for s in wl.spans if s not in st]
        if missing:
            problems.append(f"traced pass {i + 1}: expected spans never hit: {missing}")
    counts = [c for _, c in passes]
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"count metrics differ between repeats: {counts}")

    metrics = {f"{span}_s": (statistics.median(st.get(span, 0.0) for st in selfs), "s") for span in tracing.SPANS}
    c = counts[0]
    for name in COUNT_METRICS:
        metrics[name] = (c.get(name, 0), "count")
    possible = c.get("norms.pairs_possible", 0)
    metrics["norms.pair_coverage"] = (c.get("norms.pairs_evaluated", 0) / possible if possible else 0.0, "1")
    acc = res["accuracy"][0] if res["accuracy"] else {}
    for name in ACCURACY_METRICS:
        metrics[name] = (acc.get(name, 0.0), "1")

    times = res["times"]
    covered = [sum(st.values()) for st in selfs]
    run_s = statistics.median(times)
    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.untraced_run_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (run_s - untraced_s, "s")
    metrics["trace.uncovered_s"] = (statistics.median(t - cv for t, cv in zip(times, covered)), "s")
    metrics["trace.coverage"] = (statistics.median(cv / t for t, cv in zip(times, covered)), "1")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
