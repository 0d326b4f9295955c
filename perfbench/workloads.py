"""The benchmark's three workloads, driven through wedgelab's public functions.

Each workload builds its inputs from a seed (``__init__``), runs a small
version of its pass to load code paths (``warm``), runs one timed pass
(``run_pass``) and checks that pass against the acceptance battery's
thresholds (``check``).  Calls go through module attributes
(``fem.assemble``, not a name imported from ``fem``) so that the traced run
can wrap them.

- ``witness``: the straight-wall example at the battery's three graded
  levels with a flux jump on each, the corner fit and the flux control at
  the finest, and the weighted norm of a seeded point cloud of the exact
  solution.
- ``ratio``: criterion 8's estimate ratios on seeded battery instances,
  plus its two zero-data cases.
- ``maxprinciple``: criterion 10's three cases on level-7 non-obtuse meshes.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from wedgelab import acceptance, analysis, exact_solutions, fem, geometry, norms

# seeded cloud of the exact witness solution in the corner sector r <= R/4
CLOUD_POINTS = 20_000
CLOUD_RADIUS = 0.25
CLOUD_PARAMS = dict(k=1, alpha=0.5, tau=-0.8)

RATIO_LEVELS = (0.12, 0.06, 0.03)
RATIO_BUDGET = 250_000
RATIO_INSTANCES = 3  # one per battery wedge, drawn from the battery's 50 instances

MAXPRINCIPLE_LEVELS = 7
MAXPRINCIPLE_TOL = 1e-13
RIGHT_ANGLE_SLACK = 1e-12  # as in tests/test_geometry.py


def true_rel_residual(system: fem.SparseSystem, u: np.ndarray) -> float:
    """||b_f - A_ff u_f|| / ||b_f|| of the Dirichlet-eliminated system; 0 when b_f = 0."""
    free = np.ones(system.n, dtype=bool)
    free[system.constrained] = False
    lifted = np.zeros(system.n)
    lifted[system.constrained] = system.values
    b_norm = np.linalg.norm(system.rhs[free] - (system.matrix @ lifted)[free])
    r_norm = np.linalg.norm(system.rhs[free] - (system.matrix @ u)[free])
    return float(r_norm / b_norm) if b_norm > 0.0 else 0.0


def brute_force_kalpha(cloud: norms.SampledField, params: norms.NormParams) -> float:
    """Every pair of ``[f]_{k,alpha}``, written apart from the library's scans."""
    pts = cloud.points
    data = cloud.gradients if params.k == 1 else cloud.values[:, None]
    w_exp = max(params.k + params.alpha + params.tau, 0.0)
    rho = np.hypot(pts[:, 0] - params.edge_point[0], pts[:, 1] - params.edge_point[1])
    weight = np.minimum(rho, 1.0) ** w_exp  # min(delta)^e == min(delta^e) for e >= 0
    n = pts.shape[0]
    best = 0.0
    block = 32  # rows per step; wider blocks were slower and need ~6x the memory
    for i0 in range(0, n - 1, block):
        i1 = min(i0 + block, n - 1)
        rows = slice(i0, i1)
        cols = slice(i0 + 1, n)
        dist = np.hypot(pts[rows, None, 0] - pts[None, cols, 0], pts[rows, None, 1] - pts[None, cols, 1])
        diff = data[rows, None, :] - data[None, cols, :]
        num = np.sqrt((diff * diff).sum(axis=2))
        w = np.minimum(weight[rows, None], weight[None, cols])
        upper = np.arange(i0 + 1, n)[None, :] > np.arange(i0, i1)[:, None]
        keep = upper & (dist >= norms.PAIR_DIST_FLOOR)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(keep, w * num / dist**params.alpha, 0.0)
        best = max(best, float(q.max()))
    return best


class Workload:
    """Defaults for workloads that have nothing to compare against an all-pairs scan."""

    name = ""
    spans: tuple[str, ...] = ()  # spans the traced run must see in every pass

    def reference_key(self) -> str | None:
        return None

    def reference(self) -> list[float]:
        return []

    def accuracy(self, out: "PassOutput", reference: list[float]) -> dict[str, float]:
        return {}


@dataclass
class PassOutput:
    """What one pass produced; checked after the pass timer stopped."""

    values: dict = field(default_factory=dict)
    solves: list = field(default_factory=list)  # (spec, FemSolution)

    def max_rel_residual(self) -> float:
        """Worst true relative residual over the pass's solves."""
        return max(true_rel_residual(fem.assemble(fs.mesh, spec), fs.values) for spec, fs in self.solves)


class Witness(Workload):
    name = "witness"
    spans = (
        "geometry.generate_mesh", "geometry.validate_mesh", "fem.solve_problem", "fem.solve_on_mesh",
        "fem.assemble", "fem.solve_cg", "fem.element_gradients", "fem.error_report", "analysis.fit_corner_exponent",
        "analysis.interface_flux_jump", "norms.weighted_norm", "norms.weighted_seminorm_k0",
        "norms.weighted_seminorm_kalpha", "exact_solutions.eval_separable_xy",
        "exact_solutions.grad_separable_xy",
    )

    def __init__(self, seed: int):
        wedge = geometry.make_wedge(acceptance.WITNESS_THETA_MINUS, acceptance.WITNESS_THETA_PLUS)
        self.wedge = wedge
        self.domain = geometry.DomainSpec(wedge, 1.0)
        self.solution, jump = exact_solutions.build_dirichlet_example(acceptance.WITNESS_GAMMA, wedge)
        self.coeff = fem.coefficient_jump(jump.a0)
        self.spec = fem.ProblemSpec(domain=self.domain, coeff=self.coeff, phi=self.exact)
        self.params = norms.NormParams(**CLOUD_PARAMS)
        self.clouds = self._cloud(seed)

    def exact(self, x, y):
        return exact_solutions.eval_separable_xy(self.solution, x, y)

    def exact_grad(self, x, y, side):
        return exact_solutions.grad_separable_xy(self.solution, x, y, side)

    def _cloud(self, seed: int) -> list[norms.SampledField]:
        """Exact values and gradients at seeded points, graded toward the corner like the mesh."""
        rng = np.random.default_rng(seed)
        mu = acceptance.WITNESS_MU
        r = CLOUD_RADIUS * (1.0 - rng.random(CLOUD_POINTS)) ** (1.0 / (2.0 * mu))
        theta = rng.uniform(self.wedge.theta_minus, self.wedge.theta_plus, CLOUD_POINTS)
        x, y = r * np.cos(theta), r * np.sin(theta)
        side = np.where(theta > 0.0, 1, -1)
        gx, gy = self.exact_grad(x, y, side)
        vals = self.exact(x, y)
        pts = np.column_stack([x, y])
        grads = np.column_stack([gx, gy])
        return [norms.SampledField(pts[side == s], vals[side == s], grads[side == s]) for s in (1, -1)]

    def warm(self) -> None:
        fs = fem.solve_problem(self.spec, 0.05, acceptance.WITNESS_MU)
        fem.error_report(fs, self.exact, self.exact_grad)
        analysis.interface_flux_jump(fs, self.coeff)
        analysis.fit_corner_exponent(fs, analysis.default_rays(self.wedge, n=4), np.geomspace(0.02, 0.25, 4))
        norms.weighted_norm(self.clouds[1].restrict(np.arange(self.clouds[1].n) < 1000), self.params)

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        linfs, means, solve_times, converged = [], [], [], []
        for h in acceptance.WITNESS_LEVELS:
            t0 = time.perf_counter()
            fs = fem.solve_problem(self.spec, h, acceptance.WITNESS_MU)  # as Workbench.graded_solves
            solve_times.append(time.perf_counter() - t0)
            linfs.append(fem.error_report(fs, self.exact, self.exact_grad).linf)
            means.append(analysis.interface_flux_jump(fs, self.coeff).mean_jump)
            out.solves.append((self.spec, fs))
            converged.append(fs.diagnostics.converged)
        fit = analysis.fit_corner_exponent(
            fs, analysis.default_rays(self.wedge), analysis.default_fit_radii(h, 1.0)
        )
        control = analysis.interface_flux_jump(fs, self.coeff, weighting="minus-both")
        reports = [norms.weighted_norm(c, self.params) for c in self.clouds]
        out.values = dict(
            linfs=linfs, means=means, fit=fit, control=control.mean_jump, converged=converged,
            t_fine=solve_times[-1], cloud_seminorms=[r.seminorm_kalpha for r in reports],
        )
        return out

    def check(self, out: PassOutput, reference: list[float]) -> list[str]:
        """Criteria 4 and 5, CG convergence, and the cloud scan against brute force."""
        v = out.values
        fit, linfs, means = v["fit"], v["linfs"], v["means"]
        problems = []
        if not abs(fit.beta - 0.80) <= 0.05:
            problems.append(f"beta={fit.beta:.4f} not within 0.05 of 0.8")
        if not fit.r_squared >= 0.99:
            problems.append(f"r2={fit.r_squared:.6f} < 0.99")
        if not all(b < a for a, b in zip(linfs, linfs[1:])):
            problems.append(f"Linf not monotone: {linfs}")
        if not v["t_fine"] <= 60.0:
            problems.append(f"finest solve {v['t_fine']:.1f}s > 60s")
        factors = [a / b for a, b in zip(means, means[1:])]
        if not all(f >= 1.5 for f in factors):
            problems.append(f"flux factors {factors} below 1.5")
        if not v["control"] / means[-1] >= 10.0:
            problems.append(f"flux control ratio {v['control'] / means[-1]:.2f} < 10")
        if not all(v["converged"]):
            problems.append(f"CG not converged: {v['converged']}")
        for est, ref in zip(v["cloud_seminorms"], reference):
            if not est <= ref * (1.0 + 1e-12):
                problems.append(f"sampled seminorm {est!r} exceeds all-pairs value {ref!r}")
        return problems

    def accuracy(self, out: PassOutput, reference: list[float]) -> dict[str, float]:
        v = out.values
        return {
            "beta_err": abs(v["fit"].beta - acceptance.WITNESS_GAMMA),
            "linf_err": v["linfs"][-1],
            "norm_rel_gap": max((ref - est) / ref for est, ref in zip(v["cloud_seminorms"], reference)),
        }

    def reference(self) -> list[float]:
        return [brute_force_kalpha(c, self.params) for c in self.clouds]

    def reference_key(self) -> str:
        """Fingerprint of everything the all-pairs values depend on: the cloud, its params, the floor."""
        digest = hashlib.sha256(repr((self.params, norms.PAIR_DIST_FLOOR)).encode())
        for c in self.clouds:
            for a in (c.points, c.values, c.gradients):
                digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return f"witness-cloud-{digest.hexdigest()[:16]}"


class Ratio(Workload):
    name = "ratio"
    spans = (
        "geometry.generate_mesh", "geometry.validate_mesh", "fem.solve_problem", "fem.solve_on_mesh",
        "fem.assemble", "fem.solve_cg", "fem.element_gradients", "fem.solution_field",
        "analysis.estimate_ratio_interior", "analysis.estimate_ratio_corner",
        "analysis.estimate_ratio_global", "norms.weighted_norm", "norms.plain_norm",
        "norms.weighted_seminorm_k0", "norms.weighted_seminorm_kalpha",
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        n_wedges = len(acceptance._BATTERY_WEDGES)
        # instance i uses battery wedge i % 4; draw one per wedge from 0..47
        self.ids = [n_wedges * int(rng.integers(0, 12)) + j for j in range(RATIO_INSTANCES)]
        self.specs = [acceptance._random_instance(i)[2] for i in self.ids]
        self.zero_specs = [
            fem.ProblemSpec(domain=geometry.sector(tm, tp, 1.0), coeff=fem.coefficient_jump(2.0), phi=0.0)
            for tp, tm in acceptance._BATTERY_WEDGES[:2]
        ]

    def _ratios(self, fs, spec, budget) -> dict:
        return {
            "interior": analysis.estimate_ratio_interior(
                fs, spec, center=(0.55, 0.0), r_inner=0.18, alpha=0.4, pair_budget=budget
            ),
            "corner": analysis.estimate_ratio_corner(fs, spec, beta=0.5, alpha=0.4, pair_budget=budget),
            "global": analysis.estimate_ratio_global(fs, spec, beta=0.5, alpha=0.4, pair_budget=budget),
        }

    def warm(self) -> None:
        fs = fem.solve_problem(self.specs[0], 0.12, 1.0)
        self._ratios(fs, self.specs[0], RATIO_BUDGET)

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        series = []
        for spec in self.specs:
            per_level = []
            for h in RATIO_LEVELS:
                fs = fem.solve_problem(spec, h, 1.0)
                per_level.append(self._ratios(fs, spec, RATIO_BUDGET))
                out.solves.append((spec, fs))
            series.append(per_level)
        zero = []
        for spec0 in self.zero_specs:
            fs0 = fem.solve_problem(spec0, 0.08, 1.0)
            zero.append(analysis.estimate_ratio_corner(fs0, spec0, beta=0.5, alpha=0.4, pair_budget=RATIO_BUDGET))
        out.values = dict(series=series, zero=zero)
        return out

    def check(self, out: PassOutput, reference) -> list[str]:
        """Criterion 8: ratios ok and finite, refinement factors in (0.5, 2), zero data degenerate."""
        problems = []
        for i, per_level in zip(self.ids, out.values["series"]):
            for kind in ("interior", "corner", "global"):
                rs = [lv[kind] for lv in per_level]
                if any(r.status != "ok" or not math.isfinite(r.ratio) for r in rs):
                    problems.append(f"instance {i} {kind}: status {[r.status for r in rs]}")
                    continue
                for a, b in zip(rs, rs[1:]):
                    f = b.ratio / a.ratio
                    if not 0.5 < f < 2.0:
                        problems.append(f"instance {i} {kind}: factor {f:.3f} outside (0.5, 2)")
        for r0 in out.values["zero"]:
            if r0.status != "degenerate" or r0.ratio is not None:
                problems.append("zero-data case not flagged degenerate")
        return problems


class MaxPrinciple(Workload):
    name = "maxprinciple"
    spans = (
        "geometry.generate_nonobtuse_mesh", "geometry.refine_regular", "geometry.validate_mesh",
        "fem.solve_on_mesh", "fem.assemble", "fem.solve_cg", "fem.element_gradients",
    )

    def __init__(self, seed: int):
        _, jump = exact_solutions.build_dirichlet_example(
            acceptance.WITNESS_GAMMA,
            geometry.make_wedge(acceptance.WITNESS_THETA_MINUS, acceptance.WITNESS_THETA_PLUS),
        )
        cases = []
        for tp, tm, a0 in acceptance._MAXPRINCIPLE_CASES:
            domain = geometry.sector(tm, tp, 1.0)
            coeff = fem.coefficient_jump(jump.a0 if a0 is None else a0)
            cases.append((domain, fem.ProblemSpec(domain=domain, coeff=coeff, phi=self.phi)))
        # the cases are criterion 10's and fixed; the seed only orders them
        order = np.random.default_rng(seed).permutation(len(cases))
        self.cases = [cases[i] for i in order]

    @staticmethod
    def phi(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x + 0.4 * np.abs(y)

    def warm(self) -> None:
        domain, spec = self.cases[0]
        mesh = geometry.generate_nonobtuse_mesh(domain, levels=3)
        fem.solve_on_mesh(spec, mesh, tol=MAXPRINCIPLE_TOL, max_iter=20000)

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        for domain, spec in self.cases:
            mesh = geometry.generate_nonobtuse_mesh(domain, levels=MAXPRINCIPLE_LEVELS)
            fs = fem.solve_on_mesh(spec, mesh, tol=MAXPRINCIPLE_TOL, max_iter=20000)
            out.solves.append((spec, fs))
        return out

    def check(self, out: PassOutput, reference) -> list[str]:
        """Criterion 10: overshoot <= 1e-10 and no obtuse angle."""
        problems = []
        for spec, fs in out.solves:
            mesh = fs.mesh
            lo = float(fs.values[mesh.boundary].min())
            hi = float(fs.values[mesh.boundary].max())
            over = max(float(fs.values.max() - hi), float(lo - fs.values.min()), 0.0)
            if over > 1e-10:
                problems.append(f"overshoot {over:.2e} > 1e-10")
            angle = geometry.max_interior_angle(mesh)
            if angle > 0.5 * math.pi + RIGHT_ANGLE_SLACK:
                problems.append(f"obtuse angle {angle!r}")
        return problems


WORKLOADS = {w.name: w for w in (Witness, Ratio, MaxPrinciple)}
