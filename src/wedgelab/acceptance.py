"""Acceptance battery: the criteria gating a release, runnable via the CLI.

Each check returns ``(passed, details)``; ``CRITERIA`` names each check
once, and ``run_check`` times it into a ``CheckResult`` with one pass/fail
line.  Heavyweight artifacts (the graded solves of the straight-wall jump
example) are cached on a shared workbench so the flux and exponent criteria
reuse them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analysis import (
    BoundaryHypothesisError,
    calibrate_barrier,
    comparison_check,
    default_fit_radii,
    default_rays,
    estimate_ratio_corner,
    estimate_ratio_global,
    estimate_ratio_interior,
    fit_corner_exponent,
    interface_flux_jump,
)
from .exact_solutions import (
    barrier_angle_bound,
    barrier_eval_xy,
    build_dirichlet_example,
    corrector_determinant,
    corrector_solve,
    eval_separable_xy,
    grad_separable_xy,
    manufactured_grad,
    manufactured_load,
    manufactured_value,
    singular_exponent,
    transmission_coeffs,
)
from .fem import (
    PiecewiseCoefficient,
    ProblemSpec,
    coefficient_jump,
    error_report,
    fit_rate,
    solve_on_mesh,
    solve_problem,
)
from .geometry import DomainSpec, generate_nonobtuse_mesh, make_wedge, sector
from .norms import (
    NormParams,
    SampledField,
    _all_pairs_scan,
    _scan_args,
    weighted_seminorm_k0,
    weighted_seminorm_kalpha,
)

# the straight-wall example: gamma = 4/5 on theta in (-pi/4, 3pi/4)
WITNESS_GAMMA = 0.8
WITNESS_THETA_PLUS = 0.75 * math.pi
WITNESS_THETA_MINUS = -0.25 * math.pi
WITNESS_LEVELS = (1.0 / 45.0, 1.0 / 90.0, 1.0 / 180.0)
WITNESS_MU = 0.8
RATIO_INSTANCES = 50  # seeded random instances of criterion 8


@dataclass
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        detail = "; ".join(self.details)
        return f"{tag}  {self.name}  ({self.elapsed:.2f}s)  {detail}"


class Workbench:
    """Caches the singular-example solves shared by several criteria."""

    def __init__(self):
        self.wedge = make_wedge(WITNESS_THETA_MINUS, WITNESS_THETA_PLUS)
        self.domain = DomainSpec(self.wedge, 1.0)
        self.solution, self.jump = build_dirichlet_example(WITNESS_GAMMA, self.wedge)
        self.coeff = coefficient_jump(self.jump.a0)
        self.problem = ProblemSpec(
            domain=self.domain,
            coeff=self.coeff,
            phi=lambda x, y: eval_separable_xy(self.solution, x, y),
        )

    @cached_property
    def graded_solves(self):
        runs = []
        for h in WITNESS_LEVELS:
            t0 = time.perf_counter()
            fs = solve_problem(self.problem, h, WITNESS_MU)
            runs.append((h, fs, time.perf_counter() - t0))
        return runs


def check_01_coefficient_reproduction(bench: Workbench) -> tuple[bool, list[str]]:
    tp, tm = WITNESS_THETA_PLUS, WITNESS_THETA_MINUS
    g = WITNESS_GAMMA
    # independent direct evaluation of the closed form
    expected = (math.sin(g * tp) * math.cos(g * tm)) / (
        math.cos(g * tp) * math.sin(g * tm)
    )
    golden = 2.0 + math.sqrt(5.0)
    tc = transmission_coeffs(g, bench.wedge)
    transmission_coeffs(g, bench.wedge)  # warm
    reps = []
    for _ in range(7):
        s = time.perf_counter()
        transmission_coeffs(g, bench.wedge)
        reps.append(time.perf_counter() - s)
    runtime = min(reps)
    ok = (
        abs(tc.a0 - expected) <= 1e-9
        and abs(tc.a0 - golden) <= 1e-9
        and runtime < 1e-3
    )
    return ok, [f"a0={tc.a0:.12f}", f"|a0-(2+sqrt5)|={abs(tc.a0 - golden):.2e}", f"call={runtime * 1e6:.0f}us"]


def check_02_exponent_roundtrip(bench: Workbench) -> tuple[bool, list[str]]:
    a0 = transmission_coeffs(WITNESS_GAMMA, bench.wedge).a0
    singular_exponent(a0, bench.wedge)  # warm
    # CPU time of this process, so that other processes on the machine cannot fail the gate
    s = time.process_time()
    g = singular_exponent(a0, bench.wedge)
    errs = [abs(g - WITNESS_GAMMA)]
    details = [f"gamma={g:.10f}"]
    for theta in (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0):
        w = make_wedge(-theta, theta)
        target = math.pi / (2.0 * theta)
        for a in (0.5, 2.0, 10.0):
            errs.append(abs(singular_exponent(a, w) - target))
    runtime = time.process_time() - s
    worst = max(errs)
    ok = worst <= 1e-8 and runtime < 10e-3
    details += [f"worst_err={worst:.2e}", f"runtime={runtime * 1e3:.2f}ms"]
    return ok, details


def check_03_corner_consistency(bench: Workbench) -> tuple[bool, list[str]]:
    angles = (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0, 5.0 * math.pi / 12.0)
    min_gamma = math.inf
    max_residual = 0.0
    count = 0
    for tp in angles:
        for tm_abs in angles:
            w = make_wedge(-tm_abs, tp)
            for a0 in (0.5, 2.0, 10.0):
                g = singular_exponent(a0, w)
                min_gamma = min(min_gamma, g)
                det = corrector_determinant(a0, w)
                if abs(det) < 1e-14:
                    return False, [f"singular corrector at tp={tp:.3f} tm={-tm_abs:.3f} a0={a0}"]
                c = corrector_solve(1.0, -0.3, a0, w)
                lhs = np.array(
                    [
                        math.cos(tp) * c.a_star + math.sin(tp) * c.b_plus,
                        math.cos(-tm_abs) * c.a_star + math.sin(-tm_abs) * c.b_minus,
                        a0 * c.b_plus - c.b_minus,
                    ]
                )
                rhs = np.array([1.0, -0.3, 0.0])
                max_residual = max(
                    max_residual,
                    float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)),
                )
                count += 1
    ok = min_gamma > 1.0 and max_residual <= 1e-12
    return ok, [f"{count} configs", f"min_gamma={min_gamma:.6f}", f"max_residual={max_residual:.2e}"]


def check_04_corner_witness(bench: Workbench) -> tuple[bool, list[str]]:
    runs = bench.graded_solves
    linfs = []
    for h, fs, _ in runs:
        rep = error_report(
            fs,
            lambda x, y: eval_separable_xy(bench.solution, x, y),
            lambda x, y, s: grad_separable_xy(bench.solution, x, y, s),
        )
        linfs.append(rep.linf)
    h_fine, fs_fine, t_fine = runs[-1]
    fit = fit_corner_exponent(
        fs_fine, default_rays(bench.wedge), default_fit_radii(h_fine, 1.0)
    )
    monotone = all(linfs[i + 1] < linfs[i] for i in range(len(linfs) - 1))
    ok = (
        abs(fit.beta - 0.80) <= 0.05
        and fit.r_squared >= 0.99
        and monotone
        and t_fine <= 60.0
    )
    return ok, [
        f"beta={fit.beta:.4f}",
        f"r2={fit.r_squared:.6f}",
        "Linf=" + "/".join(f"{v:.2e}" for v in linfs),
        f"ndof={fs_fine.mesh.n_vertices}",
        f"finest_solve={t_fine:.1f}s",
        f"precond={fs_fine.diagnostics.preconditioner}",
    ]


def check_05_flux_continuity(bench: Workbench) -> tuple[bool, list[str]]:
    runs = bench.graded_solves
    means = [interface_flux_jump(fs, bench.coeff).mean_jump for _, fs, _ in runs]
    factors = [means[i] / means[i + 1] for i in range(len(means) - 1)]
    neg = interface_flux_jump(runs[-1][1], bench.coeff, weighting="minus-both")
    control_ratio = neg.mean_jump / means[-1]
    ok = all(f >= 1.5 for f in factors) and control_ratio >= 10.0
    return ok, [
        "mean=" + "/".join(f"{v:.3e}" for v in means),
        "factors=" + "/".join(f"{f:.2f}" for f in factors),
        f"control_ratio={control_ratio:.1f}",
    ]


def check_06_manufactured_convergence(bench: Workbench) -> tuple[bool, list[str]]:
    domain = bench.domain
    ident = PiecewiseCoefficient(1.0, 1.0, lam=1.0, Lam=1.0)

    spec = ProblemSpec(domain=domain, coeff=ident, phi=manufactured_value, h=manufactured_load)
    hs = [0.2, 0.1, 0.05]
    l2s, h1s = [], []
    for h in hs:
        rep = error_report(solve_problem(spec, h), manufactured_value, manufactured_grad)
        l2s.append(rep.l2)
        h1s.append(rep.broken_h1)
    r_l2 = fit_rate(hs, l2s)
    r_h1 = fit_rate(hs, h1s)
    ok = 1.8 <= r_l2 <= 2.2 and 0.8 <= r_h1 <= 1.2
    return ok, [f"L2_rate={r_l2:.3f}", f"H1_rate={r_h1:.3f}"]


def check_07_norm_estimators(bench: Workbench) -> tuple[bool, list[str]]:
    worst_agree = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = 1500
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        ks = rng.uniform(-3.0, 3.0, size=(4, 2))
        cs = rng.uniform(-1.0, 1.0, size=4)
        ph = rng.uniform(0.0, 2.0 * math.pi, size=4)
        vals = sum(c * np.sin(pts @ k + p) for c, k, p in zip(cs, ks, ph))
        grads = sum(c * np.cos(pts @ k + p)[:, None] * k for c, k, p in zip(cs, ks, ph))
        f = SampledField(pts, vals, grads)
        par = NormParams(
            k=trial % 2,
            alpha=0.3 + 0.2 * (trial % 3),
            tau=-0.5 + 0.3 * (trial % 4),
        )
        points, data, weights, a = _scan_args(f, par)
        ref = _all_pairs_scan(points, data, weights, a)[0]
        value = weighted_seminorm_kalpha(f, par)
        worst_agree = max(worst_agree, abs(value - ref) / ref)

    # pure powers against ray-computed references on a 1e4-point cloud
    g, al = 0.8, 0.5
    tt = np.linspace(1.0 + 1e-9, 200.0, 2_000_000)
    ray_bound = float((g * (1.0 - tt ** (g - 1.0)) / (tt - 1.0) ** al).max())
    r = np.geomspace(1e-4, 1.0, 10_000)
    fpow = SampledField(
        np.column_stack([r, np.zeros_like(r)]),
        r**g,
        np.column_stack([g * r ** (g - 1.0), np.zeros_like(r)]),
    )
    est_pairs = weighted_seminorm_kalpha(fpow, NormParams(k=1, alpha=al, tau=-g))
    est_k0 = weighted_seminorm_k0(fpow, NormParams(k=1, alpha=al, tau=-g), order=1)
    # |x|^alpha has plain Holder seminorm exactly 1 once the origin is sampled
    r2 = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 9_999)])
    fabs = SampledField(np.column_stack([r2, np.zeros_like(r2)]), r2**al)
    est_alpha = weighted_seminorm_kalpha(fabs, NormParams(k=0, alpha=al, tau=-al))
    errs = {
        "pairs": abs(est_pairs - ray_bound) / ray_bound,
        "k0": abs(est_k0 - g) / g,
        "alpha_power": abs(est_alpha - 1.0),
    }
    worst_power = max(errs.values())
    ok = worst_agree <= 1e-12 and worst_power <= 0.05
    return ok, [f"bnb_vs_all_pairs={worst_agree:.3g}", f"power_worst={worst_power:.4%}"]


_BATTERY_WEDGES = (
    (math.pi / 3.0, -math.pi / 4.0),
    (5.0 * math.pi / 12.0, -math.pi / 3.0),
    (math.pi / 4.0, -math.pi / 4.0),
    (0.45 * math.pi, -0.40 * math.pi),
)


def _random_instance(i: int):
    rng = np.random.default_rng(77000 + i)
    tp, tm = _BATTERY_WEDGES[i % len(_BATTERY_WEDGES)]
    domain = sector(tm, tp, 1.0)
    m_p, m_m = rng.uniform(0.6, 2.5, size=2)
    e_p = 0.25 * m_p * rng.uniform(0.2, 1.0)
    e_m = 0.25 * m_m * rng.uniform(0.2, 1.0)
    kp, km = rng.uniform(-2.0, 2.0, size=(2, 2))

    def a_plus(x, y, m=m_p, e=e_p, k=kp):
        return m + e * np.sin(k[0] * np.asarray(x) + k[1] * np.asarray(y))

    def a_minus(x, y, m=m_m, e=e_m, k=km):
        return m + e * np.sin(k[0] * np.asarray(x) + k[1] * np.asarray(y))

    coeff = PiecewiseCoefficient(
        a_plus,
        a_minus,
        lam=min(m_p - e_p, m_m - e_m),
        Lam=max(m_p + e_p, m_m + e_m),
    )
    cg = rng.uniform(-1.0, 1.0, size=(2, 6))

    def gfn(c):
        def g(x, y, c=c):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return np.stack(
                [c[0] + c[1] * x + c[2] * y, c[3] + c[4] * x + c[5] * y], axis=-1
            )

        return g

    ch = float(rng.uniform(-1.0, 1.0))
    cphi = rng.uniform(-1.0, 1.0, size=4)

    def phi(x, y, c=cphi):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return c[0] * x + c[1] * y + c[2] * x * y + c[3] * (x * x - y * y)

    spec = ProblemSpec(
        domain=domain, coeff=coeff, phi=phi, g_plus=gfn(cg[0]), g_minus=gfn(cg[1]), h=ch
    )
    return domain, coeff, spec


def _instance_ratios(i: int):
    """Criterion 8's estimate ratios of instance ``i``: (h, kind, ``EstimateRatio``) per level, in solve order."""
    _, _, spec = _random_instance(i)
    for h in (0.12, 0.06, 0.03):
        fs = solve_problem(spec, h, 1.0)
        yield h, "interior", estimate_ratio_interior(fs, spec, center=(0.55, 0.0), r_inner=0.18, alpha=0.4)
        yield h, "corner", estimate_ratio_corner(fs, spec, beta=0.5, alpha=0.4)
        yield h, "global", estimate_ratio_global(fs, spec, beta=0.5, alpha=0.4)


def _zero_data_ratios():
    """Criterion 8's degenerate cases: the corner ratio of zero data on the first two battery wedges."""
    for tp, tm in _BATTERY_WEDGES[:2]:
        spec0 = ProblemSpec(domain=sector(tm, tp, 1.0), coeff=coefficient_jump(2.0), phi=0.0)
        yield estimate_ratio_corner(solve_problem(spec0, 0.08, 1.0), spec0, beta=0.5, alpha=0.4)


def check_08_ratio_stability(bench: Workbench) -> tuple[bool, list[str]]:
    worst_factor = 1.0
    n_ratios = 0
    for i in range(RATIO_INSTANCES):
        series: dict[str, list[float]] = {"interior": [], "corner": [], "global": []}
        for h, kind, r in _instance_ratios(i):
            if r.status != "ok" or not math.isfinite(r.ratio):
                return False, [f"instance {i} {kind} at h={h}: status={r.status}"]
            series[kind].append(r.ratio)
            n_ratios += 1
        for kind, vals in series.items():
            for a, b in zip(vals, vals[1:]):
                f = b / a
                worst_factor = max(worst_factor, f, 1.0 / f)
                if not (0.5 < f < 2.0):
                    return False, [f"instance {i} {kind}: factor {f:.3f} outside (0.5, 2)"]
    # degenerate zero-data cases must be flagged, never reported as ratios
    for r0 in _zero_data_ratios():
        if r0.status != "degenerate" or r0.ratio is not None:
            return False, ["zero-data case not flagged degenerate"]
    return True, [
        f"{RATIO_INSTANCES} instances x 3 levels, {n_ratios} ratios",
        f"worst_refinement_factor={worst_factor:.3f}",
        "zero-data flagged degenerate",
    ]


_COMPARISON_TRIPLES = (
    (math.pi / 3.0, -math.pi / 4.0, 2.0),
    (math.pi / 4.0, -math.pi / 6.0, 0.5),
    (5.0 * math.pi / 12.0, -math.pi / 3.0, 10.0),
)


def _comparison_case(tp: float, tm: float, a0: float):
    """Build v = (separable + plane) - value - recovered plane on the unit sector."""
    w = make_wedge(tm, tp)
    gamma = singular_exponent(a0, w)
    sol, jump = build_dirichlet_example(gamma, w)
    plane = corrector_solve(0.7, -0.4, jump.a0, w)

    def total(x, y):
        return eval_separable_xy(sol, x, y) + plane.eval_xy(x, y)

    # tangential wall derivatives at the corner: the separable part has none
    # (gamma > 1), so they come from the plane alone
    c_plus = math.cos(tp) * plane.a_star + math.sin(tp) * plane.b_plus
    c_minus = math.cos(tm) * plane.a_star + math.sin(tm) * plane.b_minus
    recovered = corrector_solve(c_plus, c_minus, jump.a0, w)

    def v(x, y):
        return total(x, y) - total(np.zeros(1), np.zeros(1))[0] - recovered.eval_xy(x, y)

    bound = barrier_angle_bound(w)
    alpha = min(0.35 * (bound - 1.0), 0.8 * (gamma - 1.0), 0.85)
    tau0 = min(0.35 * (bound - 1.0), 0.85)
    if alpha <= 0.0 or tau0 <= 0.0:
        raise ValueError(f"no admissible barrier exponents for ({tp}, {tm}, {a0})")
    return w, gamma, v, alpha, tau0, recovered, plane


def _sector_samples(w, n_arc=240, n_wall=120, n_r=40, n_t=80):
    th = np.linspace(w.theta_minus, w.theta_plus, n_arc)
    arc = np.column_stack([np.cos(th), np.sin(th)])
    rr = np.linspace(1.0 / n_wall, 1.0, n_wall)
    wall_p = np.column_stack([rr * math.cos(w.theta_plus), rr * math.sin(w.theta_plus)])
    wall_m = np.column_stack([rr * math.cos(w.theta_minus), rr * math.sin(w.theta_minus)])
    boundary = np.vstack([arc, wall_p, wall_m])
    r_i = np.linspace(0.02, 0.98, n_r)
    t_i = np.linspace(w.theta_minus + 1e-3, w.theta_plus - 1e-3, n_t)
    R, T = np.meshgrid(r_i, t_i, indexing="ij")
    interior = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
    return boundary, interior


def check_09_comparison_principle(bench: Workbench) -> tuple[bool, list[str]]:
    details = []
    for tp, tm, a0 in _COMPARISON_TRIPLES:
        w, gamma, v, alpha, tau0, recovered, plane = _comparison_case(tp, tm, a0)
        if not (
            abs(recovered.a_star - plane.a_star) <= 1e-10
            and abs(recovered.b_plus - plane.b_plus) <= 1e-10
        ):
            return False, [f"corrector not recovered for ({tp:.3f},{tm:.3f},{a0})"]
        boundary, interior = _sector_samples(w)
        barrier = calibrate_barrier(v, alpha, tau0, w, boundary)
        rep = comparison_check(v, barrier, boundary, interior)
        if not rep.passed:
            return False, [f"interior violation {rep.worst_interior_ratio:.6g} for a0={a0}"]
        # negative control: v = 2w must fail at the boundary stage
        def v2(x, y, b=barrier):
            return 2.0 * barrier_eval_xy(b, x, y)

        try:
            comparison_check(v2, barrier, boundary, interior)
            return False, ["negative control v=2w did not fail at the boundary"]
        except BoundaryHypothesisError:
            pass
        details.append(f"a0={a0}: gamma={gamma:.3f} worst={rep.worst_interior_ratio:.4f}")
    return True, details


_MAXPRINCIPLE_CASES = (
    (WITNESS_THETA_PLUS, WITNESS_THETA_MINUS, None),  # jump from the witness example
    (math.pi / 3.0, -math.pi / 4.0, 0.5),
    (2.0 * math.pi / 3.0, -3.0 * math.pi / 4.0, 5.0),  # reflex opening
)


def check_10_maximum_principle(bench: Workbench) -> tuple[bool, list[str]]:
    details = []
    for tp, tm, a0 in _MAXPRINCIPLE_CASES:
        a0v = bench.jump.a0 if a0 is None else a0
        domain = sector(tm, tp, 1.0)
        mesh = generate_nonobtuse_mesh(domain, levels=4)

        def phi(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return x + 0.4 * np.abs(y)

        spec = ProblemSpec(domain=domain, coeff=coefficient_jump(a0v), phi=phi)
        fs = solve_on_mesh(spec, mesh, tol=1e-13, max_iter=20000)
        lo = float(fs.values[mesh.boundary].min())
        hi = float(fs.values[mesh.boundary].max())
        over = max(
            float(fs.values.max() - hi), float(lo - fs.values.min()), 0.0
        )
        cg = fs.diagnostics
        details.append(
            f"a0={a0v:.3g}: overshoot={over:.2e} "
            f"precond={cg.preconditioner} levels={cg.levels} iters={cg.iterations}"
        )
        if over > 1e-10:
            return False, details
    return True, details


CRITERIA = [
    ("1 coefficient reproduction", check_01_coefficient_reproduction),
    ("2 exponent round-trip", check_02_exponent_roundtrip),
    ("3 C1a corner consistency", check_03_corner_consistency),
    ("4 corner-effect witness", check_04_corner_witness),
    ("5 interface flux continuity", check_05_flux_continuity),
    ("6 manufactured smooth convergence", check_06_manufactured_convergence),
    ("7 norm estimator oracle equivalence", check_07_norm_estimators),
    ("8 estimate-ratio stability", check_08_ratio_stability),
    ("9 comparison-principle check", check_09_comparison_principle),
    ("10 maximum-principle surrogate", check_10_maximum_principle),
]


def run_check(name: str, check, bench: Workbench) -> CheckResult:
    t0 = time.perf_counter()
    passed, details = check(bench)
    return CheckResult(name, bool(passed), time.perf_counter() - t0, details)


def run_acceptance(filter_substr: str = "") -> list[CheckResult]:
    """Run the criteria whose name contains ``filter_substr`` (any case), printing each line."""
    bench = Workbench()
    results = []
    for name, check in CRITERIA:
        if filter_substr.lower() in name.lower():
            results.append(run_check(name, check, bench))
            print(results[-1].line(), flush=True)
    return results
