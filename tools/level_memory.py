"""Time one witness level stage by stage, with the peak resident memory after each stage.

    python3 tools/level_memory.py 360

Solves the straight-wall witness problem of criteria 4 and 5 at h = 1/LEVEL
on the mesh graded with mu = 0.8 (``acceptance.WITNESS_MU``), with one BLAS
thread: the thread variables are set before numpy is loaded.  After each
stage it prints the stage, its seconds and the process's ``ru_maxrss`` in MB
(KiB / 1024, the unit of perfbench's ``peak_rss_mb``).  The stages are
``mesh`` (``generate_mesh``, validation included), ``assemble``,
``solve_cg``, ``gradients`` (``element_gradients``), ``error_report``,
``index``: ``with_pair_index`` of each side of the solution cloud, the upper,
then the lower barycenters, and ``scan``: the exact k = 1 weighted pair scan
(alpha = 0.5, tau = -0.8) of each side, ``weighted_seminorm_kalpha``
walking that side's index.
The last line gives the mesh size, the solver's preconditioner, levels,
iterations, true relative residual and the seconds ``solve_cg`` spent
building its preconditioner (``setup_s``), and the L-infinity error.
``ru_maxrss`` never falls within a process, so run one level per process.
Uses only the standard library and wedgelab.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("level", type=int, help="the mesh size is h = 1/LEVEL")
    level = parser.parse_args().level
    if level < 1:
        parser.error("LEVEL must be a positive integer")
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(ROOT / "src"))
    from wedgelab import acceptance, exact_solutions, fem, geometry, norms

    bench = acceptance.Workbench()
    h = 1.0 / level
    print(f"level {level}: h = {h:.6g}, mu = {acceptance.WITNESS_MU}, start rss {rss_mb():.1f} MB", flush=True)

    def stage(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        print(f"{name:<13s} {time.perf_counter() - t0:8.3f} s {rss_mb():9.1f} MB", flush=True)
        return out

    mesh = stage("mesh", geometry.generate_mesh, bench.domain, h, acceptance.WITNESS_MU)
    system = stage("assemble", fem.assemble, mesh, bench.problem)
    values, diagnostics = stage("solve_cg", fem.solve_cg, system)
    del system
    gradients = stage("gradients", fem.element_gradients, mesh, values)
    fs = fem.FemSolution(mesh=mesh, values=values, element_gradients=gradients, diagnostics=diagnostics)
    report = stage(
        "error_report",
        fem.error_report,
        fs,
        lambda x, y: exact_solutions.eval_separable_xy(bench.solution, x, y),
        lambda x, y, side: exact_solutions.grad_separable_xy(bench.solution, x, y, side),
    )
    cloud = fem.solution_field(fs)
    params = norms.NormParams(k=1, alpha=0.5, tau=-0.8)
    sides = stage("index", lambda: [norms.with_pair_index(cloud.restrict(cloud.regions == s)) for s in (1, -1)])
    stage("scan", lambda: [norms.weighted_seminorm_kalpha(side, params) for side in sides])
    print(
        f"nv {mesh.n_vertices}, nt {mesh.n_triangles}, {diagnostics.preconditioner} "
        f"{diagnostics.levels} levels {diagnostics.iterations} iterations, "
        f"true_residual {diagnostics.true_residual:.3g}, setup_s {diagnostics.setup_s:.4f}, linf {report.linf:.6g}"
    )


if __name__ == "__main__":
    main()
