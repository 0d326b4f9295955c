import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedgelab.analysis import (
    BoundaryHypothesisError,
    FitError,
    P1Evaluator,
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
from wedgelab.exact_solutions import (
    Barrier,
    barrier_eval_xy,
    build_dirichlet_example,
    corrector_solve,
    eval_separable_xy,
    grad_separable_xy,
    singular_exponent,
)
from wedgelab.fem import (
    CgDiagnostics,
    FemSolution,
    PiecewiseCoefficient,
    ProblemSpec,
    coefficient_jump,
    element_gradients,
    error_report,
    solve_on_mesh,
    solve_problem,
)
from wedgelab.geometry import Mesh, edge_table, generate_mesh, make_wedge, sector

PI = math.pi
STRAIGHT = make_wedge(-PI / 4, 3 * PI / 4)
DOM = sector(-PI / 4, 3 * PI / 4, 1.0)


def interpolant_solution(mesh, fn):
    values = fn(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return FemSolution(
        mesh=mesh,
        values=values,
        element_gradients=element_gradients(mesh, values),
        diagnostics=CgDiagnostics(0, 0.0, np.zeros(0), 0, True),
    )


def p1_brute_force(mesh, values, pts):
    """P1 values at ``pts`` from the triangle whose smallest barycentric coordinate is largest, over every triangle."""
    a, b, c = np.moveaxis(mesh.vertices[mesh.triangles], 1, 0)

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    det = cross(b - a, c - a)
    out = []
    for block in np.array_split(pts, -(-len(pts) // 128)):
        p = block[:, None, :]
        lb, lc = cross(p - a, c - a) / det, cross(b - a, p - a) / det
        lam = np.stack([1.0 - lb - lc, lb, lc], axis=-1)
        k = lam.min(axis=-1).argmax(axis=1)
        best = np.clip(lam[np.arange(len(block)), k], 0.0, 1.0)
        best /= best.sum(axis=1, keepdims=True)
        out.append((values[mesh.triangles[k]] * best).sum(axis=1))
    return np.concatenate(out)


class TestFitCornerExponent:
    @pytest.mark.parametrize("s", [0.5, 0.8, 1.0, 1.3])
    def test_pure_powers_recovered(self, s):
        def field(x, y):
            return np.hypot(np.asarray(x), np.asarray(y)) ** s

        radii = [2.0**-k for k in range(3, 11)]
        fit = fit_corner_exponent(field, default_rays(STRAIGHT, 16), radii)
        assert fit.beta == pytest.approx(s, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_linear_field(self):
        def field(x, y):
            return np.asarray(x, dtype=float)

        radii = [2.0**-k for k in range(3, 11)]
        fit = fit_corner_exponent(field, default_rays(STRAIGHT, 16), radii)
        assert fit.beta == pytest.approx(1.0, abs=1e-3)

    def test_separable_example_exact_samples(self):
        sol, _ = build_dirichlet_example(0.8, STRAIGHT)

        def field(x, y):
            return eval_separable_xy(sol, x, y)

        radii = [2.0**-k for k in range(3, 11)]
        fit = fit_corner_exponent(field, default_rays(STRAIGHT, 24), radii)
        assert fit.beta == pytest.approx(0.8, abs=1e-3)
        assert fit.r_squared > 0.9999
        # per-ray slopes agree away from the walls
        for theta, slope in fit.per_ray.items():
            assert slope == pytest.approx(0.8, abs=5e-3)

    def test_fem_solution_small(self):
        sol, jump = build_dirichlet_example(0.8, STRAIGHT)
        spec = ProblemSpec(
            domain=DOM,
            coeff=coefficient_jump(jump.a0),
            phi=lambda x, y: eval_separable_xy(sol, x, y),
        )
        h = 1 / 64
        fs = solve_problem(spec, h, 0.8)
        radii = np.geomspace(4 * h, 0.7, 8)  # widen past R/4 to span a decade
        fit = fit_corner_exponent(fs, default_rays(STRAIGHT, 24), radii)
        assert fit.beta == pytest.approx(0.8, abs=0.05)

    def test_fem_solution_reflex_wedge(self):
        # reentrant corner: the exponent comes out of the transcendental
        # root, well below the straight-wall value
        dom = sector(-0.25 * PI, 1.2 * PI, 1.0)
        gamma = singular_exponent(3.0, dom.wedge)
        assert gamma < 0.7
        sol, jump = build_dirichlet_example(gamma, dom.wedge)
        spec = ProblemSpec(
            domain=dom,
            coeff=coefficient_jump(jump.a0),
            phi=lambda x, y: eval_separable_xy(sol, x, y),
        )
        h = 1 / 64
        fs = solve_problem(spec, h, 0.7)
        radii = np.geomspace(4 * h, 0.7, 8)
        fit = fit_corner_exponent(fs, default_rays(dom.wedge, 40), radii)
        assert fit.beta == pytest.approx(gamma, abs=0.05)

    def test_too_few_radii(self):
        with pytest.raises(FitError):
            fit_corner_exponent(lambda x, y: np.hypot(x, y), [0.1], [0.1, 0.2, 0.4])

    def test_decade_span_required(self):
        with pytest.raises(FitError):
            fit_corner_exponent(
                lambda x, y: np.hypot(x, y), [0.1], [0.1, 0.2, 0.4, 0.8]
            )
        # a span is only measured on finite positive radii
        for radii in ([-0.4, -0.2, -0.1, -0.01, 0.5], [0.01, 0.05, np.nan, 0.2, 0.5], [0.0, 0.01, 0.1, 0.5]):
            with pytest.raises(FitError, match="finite and positive"):
                fit_corner_exponent(lambda x, y: np.hypot(x, y), [0.1], radii)

    def test_zero_variation_is_error(self):
        with pytest.raises(FitError):
            fit_corner_exponent(
                lambda x, y: np.ones_like(np.asarray(x)),
                [0.1, 0.3],
                [0.01, 0.05, 0.1, 0.2],
            )

    def test_default_fit_radii_window(self):
        radii = default_fit_radii(1 / 200.0, 1.0)
        assert radii[0] == pytest.approx(4 / 200.0)
        assert radii[-1] == pytest.approx(0.25)
        with pytest.raises(FitError):
            default_fit_radii(0.2, 1.0)
        with pytest.raises(FitError, match="decade"):  # 0.08 .. 0.25
            default_fit_radii(0.02, 1.0)


class TestP1Evaluator:
    def test_reproduces_linear_interpolant(self):
        mesh = generate_mesh(DOM, 0.2, 0.7)
        fs = interpolant_solution(mesh, lambda x, y: 3.0 * x - y)
        ev = P1Evaluator(fs)
        rng = np.random.default_rng(31)
        r = rng.uniform(0.05, 0.9, 60)
        th = rng.uniform(-PI / 4 + 0.05, 3 * PI / 4 - 0.05, 60)
        x, y = r * np.cos(th), r * np.sin(th)
        assert np.allclose(ev(x, y), 3.0 * x - y, atol=1e-10)

    def test_outside_query_rejected(self):
        mesh = generate_mesh(DOM, 0.3)
        fs = interpolant_solution(mesh, lambda x, y: x)
        ev = P1Evaluator(fs)
        with pytest.raises(FitError):
            ev(np.array([1.4]), np.array([1.4]))

    @settings(max_examples=15, deadline=None)
    @given(
        theta_minus=st.floats(-3.1, -0.3),
        opening=st.floats(PI + 0.05, 2 * PI - 1e-3),
        mu=st.floats(0.5, 1.0),
        h=st.floats(0.08, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(theta_minus=-0.3, opening=2 * PI - 1e-3, mu=0.5, h=0.08, seed=0)
    def test_matches_brute_force_on_reflex_wedges(self, theta_minus, opening, mu, h, seed):
        mesh = generate_mesh(sector(theta_minus, theta_minus + opening, 1.0), h, mu)
        fs = interpolant_solution(mesh, lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y) + x * y)
        rng = np.random.default_rng(seed)
        t = rng.integers(0, mesh.n_triangles, 200)
        weights = rng.dirichlet(np.ones(3), 200)
        edges = edge_table(mesh.triangles)[0]
        pts = np.vstack([
            np.einsum("ni,nij->nj", weights, mesh.vertices[mesh.triangles[t]]),
            mesh.vertices,
            0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]]),
            [[0.0, 0.0]],
        ])
        ev = P1Evaluator(fs)
        assert np.abs(ev(pts[:, 0], pts[:, 1]) - p1_brute_force(mesh, fs.values, pts)).max() <= 1e-12
        th = theta_minus + opening * rng.uniform()
        with pytest.raises(FitError):
            ev(np.array([1.2 * math.cos(th)]), np.array([1.2 * math.sin(th)]))

    @settings(max_examples=15, deadline=None)
    @given(
        theta_minus=st.floats(-3.1, -0.3),
        opening=st.floats(PI + 0.05, 2 * PI - 1e-3),
        mu=st.floats(0.5, 1.0),
        h=st.floats(0.08, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(theta_minus=-0.3, opening=2 * PI - 1e-3, mu=0.5, h=0.08, seed=0)
    def test_box_index_matches_full_tree(self, theta_minus, opening, mu, h, seed):
        # a call indexes the barycenters in its points' box; adding the mesh's extreme
        # vertices to the call widens the box over every barycenter, a full-tree evaluation
        mesh = generate_mesh(sector(theta_minus, theta_minus + opening, 1.0), h, mu)
        ev = P1Evaluator(interpolant_solution(mesh, lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y) + x * y))
        rng = np.random.default_rng(seed)
        t = rng.integers(0, mesh.n_triangles, 200)
        pts = np.vstack([
            np.einsum("ni,nij->nj", rng.dirichlet(np.ones(3), 200), mesh.vertices[mesh.triangles[t]]),
            mesh.vertices[rng.integers(0, mesh.n_vertices, 50)],
        ])
        v = mesh.vertices
        extremes = v[[v[:, 0].argmin(), v[:, 0].argmax(), v[:, 1].argmin(), v[:, 1].argmax()]]
        full = ev(*np.vstack([pts, extremes]).T)[: pts.shape[0]]
        assert np.array_equal(ev(*pts.T), full)
        for i in range(20):  # one point at a time: the smallest boxes
            assert ev(pts[i : i + 1, 0], pts[i : i + 1, 1]).tobytes() == full[i : i + 1].tobytes()
        far = theta_minus + opening * rng.uniform()
        with pytest.raises(FitError):
            ev(np.array([1.2 * math.cos(far), 0.1]), np.array([1.2 * math.sin(far), 0.0]))


def test_element_geometry_computed_once_per_mesh(monkeypatch):
    # assembly, gradient recovery, point evaluation, flux jumps and error
    # quadrature all read the mesh's cached arrays: each is computed once
    calls = {}
    for name in ("areas", "barycenters", "basis_gradients"):
        prop = Mesh.__dict__[name]

        def counted(mesh, func=prop.func, name=name):
            calls[name] = calls.get(name, 0) + 1
            return func(mesh)

        monkeypatch.setattr(prop, "func", counted)
    sol, jump = build_dirichlet_example(0.8, STRAIGHT)
    spec = ProblemSpec(domain=DOM, coeff=coefficient_jump(jump.a0), phi=lambda x, y: eval_separable_xy(sol, x, y))
    mesh = generate_mesh(DOM, 0.1, 0.8)
    fs = solve_on_mesh(spec, mesh)
    grads = mesh.basis_gradients
    P1Evaluator(fs)(np.array([0.3]), np.array([0.2]))
    interface_flux_jump(fs, spec.coeff)
    error_report(fs, lambda x, y: eval_separable_xy(sol, x, y), lambda x, y, s: grad_separable_xy(sol, x, y, s))
    assert calls == {"areas": 1, "barycenters": 1, "basis_gradients": 1}
    assert mesh.basis_gradients is grads


class TestInterfaceFluxJump:
    def test_unknown_weighting_rejected(self):
        mesh = generate_mesh(DOM, 0.3)
        fs = interpolant_solution(mesh, lambda x, y: np.asarray(x))
        with pytest.raises(ValueError, match="minus_both"):
            interface_flux_jump(fs, coefficient_jump(2.0), weighting="minus_both")

    def test_interpolant_jump_decreases(self):
        # per-element gradients of the exact interpolant: conormal mismatch
        # shrinks with the mesh
        sol, jump = build_dirichlet_example(0.8, STRAIGHT)
        coeff = coefficient_jump(jump.a0)
        means = []
        for h in (0.2, 0.1, 0.05):
            mesh = generate_mesh(DOM, h, 1.0)
            fs = interpolant_solution(mesh, lambda x, y: eval_separable_xy(sol, x, y))
            means.append(interface_flux_jump(fs, coeff).mean_jump)
        assert means[2] < means[1] < means[0]

    def test_smooth_case_first_order(self):
        coeff = PiecewiseCoefficient(1.0, 1.0, lam=1.0, Lam=1.0)
        means = []
        hs = (0.2, 0.1, 0.05)
        for h in hs:
            mesh = generate_mesh(DOM, h, 1.0)
            fs = interpolant_solution(
                mesh, lambda x, y: np.sin(np.asarray(x)) * np.cos(np.asarray(y))
            )
            means.append(interface_flux_jump(fs, coeff).mean_jump)
        from wedgelab.fem import fit_rate

        assert 0.7 <= fit_rate(hs, means) <= 1.6

    def test_negative_control_bounded_away_from_zero(self):
        sol, jump = build_dirichlet_example(0.8, STRAIGHT)
        coeff = coefficient_jump(jump.a0)
        spec = ProblemSpec(
            domain=DOM, coeff=coeff, phi=lambda x, y: eval_separable_xy(sol, x, y)
        )
        fs = solve_problem(spec, 0.05, 0.8)
        correct = interface_flux_jump(fs, coeff)
        wrong = interface_flux_jump(fs, coeff, weighting="minus-both")
        assert wrong.mean_jump > 10.0 * correct.mean_jump
        assert wrong.mean_jump > 0.3

    def test_empty_interface(self):
        # a mesh strictly above the axis has no interface edges
        mesh = Mesh(
            vertices=np.array([[0.0, 0.1], [1.0, 0.1], [0.0, 1.0]]),
            triangles=np.array([[0, 1, 2]]),
            region=np.array([1], dtype=np.int8),
            boundary=np.ones(3, dtype=bool),
        )
        fs = interpolant_solution(mesh, lambda x, y: np.asarray(x))
        rep = interface_flux_jump(fs, coefficient_jump(2.0))
        assert rep.max_jump == 0.0 and rep.n_edges == 0


@pytest.fixture(scope="module")
def singular_solve():
    sol, jump = build_dirichlet_example(0.8, STRAIGHT)
    spec = ProblemSpec(
        domain=DOM,
        coeff=coefficient_jump(jump.a0),
        phi=lambda x, y: eval_separable_xy(sol, x, y),
    )
    return spec, solve_problem(spec, 0.05, 0.8)


class TestEstimateRatios:

    def test_interior_ratio_recorded(self, singular_solve):
        spec, fs = singular_solve
        r = estimate_ratio_interior(fs, spec, center=(0.55, 0.0), r_inner=0.15, alpha=0.5)
        assert r.status == "ok"
        assert math.isfinite(r.ratio) and r.ratio > 0

    def test_linear_compatible_data_small_ratio(self):
        spec = ProblemSpec(domain=DOM, coeff=coefficient_jump(3.0), phi=lambda x, y: x)
        fs = solve_problem(spec, 0.08, 1.0)
        r = estimate_ratio_interior(fs, spec, center=(0.55, 0.0), r_inner=0.15, alpha=0.5)
        assert r.status == "ok"
        assert r.ratio < 10.0

    def test_corner_ratio_weight_sharpness(self, singular_solve):
        # beta matching the true exponent keeps the weighted norm stable;
        # overshooting beta (0.95 > 0.8) makes it grow under refinement
        spec, _ = singular_solve
        lhs = {0.8: [], 0.95: []}
        for h in (0.1, 0.05, 0.025):
            fs = solve_problem(spec, h, 0.8)
            for beta in lhs:
                r = estimate_ratio_corner(fs, spec, beta=beta, alpha=0.5)
                lhs[beta].append(r.lhs)
        stable = lhs[0.8]
        growing = lhs[0.95]
        assert stable[-1] / stable[0] < 2.0
        assert growing[-1] / growing[0] > stable[-1] / stable[0]
        assert growing[-1] > growing[0]

    def test_global_ratio_finite(self, singular_solve):
        spec, fs = singular_solve
        r = estimate_ratio_global(fs, spec, beta=0.8, alpha=0.5)
        assert r.status == "ok" and math.isfinite(r.ratio)

    def test_zero_data_degenerate(self):
        spec = ProblemSpec(domain=DOM, coeff=coefficient_jump(2.0), phi=0.0)
        fs = solve_problem(spec, 0.1, 1.0)
        r = estimate_ratio_corner(fs, spec, beta=0.5, alpha=0.5)
        assert r.status == "degenerate"
        assert r.ratio is None


# (instance, kind, lhs, rhs, status, descriptor) of criterion 8's estimates
# at h = 0.12, recorded from the per-kind implementation they replace and
# re-recorded when the solve moved from Jacobi- to line-preconditioned CG
# (the values moved by at most 2.9e-10 relative)
GOLDEN_RATIOS = [
    (0, "interior", 2.059233716224583, 3.2241854540267707, "ok", "interior ball r=0.18 at (0.55,0)"),
    (0, "interior", 2.266085294170224, 3.297955511590581, "ok", "interior ball r=0.1 at (0.5,0.3)"),
    (0, "corner", 1.6910383894163248, 8.381418697144227, "ok", "corner sectors 0.5R in R, beta=0.5"),
    (0, "global", 3.4997367489675484, 7.5551828003199075, "ok", "full sector"),
    (1, "interior", 5.195775459236552, 3.4755090233406833, "ok", "interior ball r=0.18 at (0.55,0)"),
    (1, "interior", 3.8564306362005594, 1.4441531111343355, "ok", "interior ball r=0.1 at (0.5,0.3)"),
    (1, "corner", 2.83318384189677, 9.287196896218482, "ok", "corner sectors 0.5R in R, beta=0.5"),
    (1, "global", 7.055183354701105, 9.757654907024868, "ok", "full sector"),
    (2, "interior", 2.7841763163048885, 3.4022643998623856, "ok", "interior ball r=0.18 at (0.55,0)"),
    (2, "interior", 2.234558672675234, 2.7573443393640136, "ok", "interior ball r=0.1 at (0.5,0.3)"),
    (2, "corner", 1.6226749214096805, 5.555463858092629, "ok", "corner sectors 0.5R in R, beta=0.5"),
    (2, "global", 3.9188494978055566, 7.762310617543295, "ok", "full sector"),
    ("zero-0", "corner", 0.0, 0.0, "degenerate", "corner sectors 0.5R in R, beta=0.5"),
    ("zero-1", "corner", 0.0, 0.0, "degenerate", "corner sectors 0.5R in R, beta=0.5"),
]


def test_ratios_match_golden_values():
    from wedgelab.acceptance import _BATTERY_WEDGES, _random_instance

    got = []
    for i in range(3):
        spec = _random_instance(i)[2]
        fs = solve_problem(spec, 0.12, 1.0)
        rs = [
            estimate_ratio_interior(fs, spec, center=(0.55, 0.0), r_inner=0.18, alpha=0.4),
            # the outer ball B((0.5, 0.3), 0.2) lies above the interface: one side only
            estimate_ratio_interior(fs, spec, center=(0.5, 0.3), r_inner=0.1, alpha=0.4),
            estimate_ratio_corner(fs, spec, beta=0.5, alpha=0.4),
            estimate_ratio_global(fs, spec, beta=0.5, alpha=0.4),
        ]
        got += [(i, r) for r in rs]
    for j, (tp, tm) in enumerate(_BATTERY_WEDGES[:2]):
        spec0 = ProblemSpec(domain=sector(tm, tp, 1.0), coeff=coefficient_jump(2.0), phi=0.0)
        fs0 = solve_problem(spec0, 0.12, 1.0)
        got.append((f"zero-{j}", estimate_ratio_corner(fs0, spec0, beta=0.5, alpha=0.4)))
    assert len(got) == len(GOLDEN_RATIOS)
    for (i, r), (gi, kind, lhs, rhs, status, desc) in zip(got, GOLDEN_RATIOS):
        assert (i, r.kind, r.status, r.descriptor) == (gi, kind, status, desc)
        assert r.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert r.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_repeated_solves_of_one_spec_do_the_same_work(monkeypatch):
    # the data norms are stored per solve, not on the spec: two solves of one
    # spec object compute the 4 trace norms (two walls, two arcs) each, so a
    # series or a benchmark that reuses a spec repeats the same scans
    from wedgelab import analysis
    from wedgelab.acceptance import _random_instance

    calls = []
    trace_norm = analysis._trace_norm

    def counting(*args):
        calls.append(args[0])
        return trace_norm(*args)

    monkeypatch.setattr(analysis, "_trace_norm", counting)
    spec = _random_instance(3)[2]
    per_solve = []
    for _ in range(2):
        calls.clear()
        fs = solve_problem(spec, 0.12, 1.0)
        estimate_ratio_corner(fs, spec, beta=0.5, alpha=0.4)
        estimate_ratio_global(fs, spec, beta=0.5, alpha=0.4)
        per_solve.append(len(calls))
    assert per_solve == [4, 4]


def test_interior_rhs_sums_its_terms_in_order():
    # rhs = ((sup|u| + trace term) + sup|h|) + g term, bit for bit; the
    # interior estimate has no trace term
    from wedgelab.acceptance import _random_instance
    from wedgelab.fem import solution_field
    from wedgelab.norms import SampledField, plain_norm

    spec = _random_instance(2)[2]
    fs = solve_problem(spec, 0.12, 1.0)
    fld = solution_field(fs)
    for center, r in (((0.55, 0.0), 0.18), ((0.5, 0.3), 0.1)):
        d = np.hypot(fld.points[:, 0] - center[0], fld.points[:, 1] - center[1])
        outer = fld.restrict(d <= 2.0 * r)
        x, y = outer.points[:, 0], outer.points[:, 1]
        g = spec.g_at(x, y, outer.regions)
        g_norm = 0.0
        for side in (1, -1):
            m = outer.regions == side
            if m.sum() >= 2:
                for comp in (0, 1):
                    gf = SampledField(outer.points[m], g[m, comp])
                    g_norm = max(g_norm, plain_norm(gf, k=0, alpha=0.4))
        sup_u = float(np.abs(outer.values).max())
        expected = ((sup_u + 0.0) + float(np.abs(spec.h_at(x, y)).max())) + g_norm
        got = estimate_ratio_interior(fs, spec, center=center, r_inner=r, alpha=0.4)
        assert got.rhs == expected


# criterion 8's three ratios, as the battery calls them
RATIOS = {
    "interior": lambda fs, spec, alpha: estimate_ratio_interior(
        fs, spec, center=(0.55, 0.0), r_inner=0.18, alpha=alpha
    ),
    "corner": lambda fs, spec, alpha: estimate_ratio_corner(fs, spec, beta=0.5, alpha=alpha),
    "global": lambda fs, spec, alpha: estimate_ratio_global(fs, spec, beta=0.5, alpha=alpha),
}


def _bits(r):
    return r.lhs.hex(), r.rhs.hex(), r.status


@settings(max_examples=25, deadline=None)
@given(
    instance=st.integers(0, 49),
    calls=st.lists(
        st.tuples(st.sampled_from(sorted(RATIOS)), st.sampled_from([0.3, 0.4])), min_size=1, max_size=5
    ),
)
def test_ratios_sharing_a_solve_equal_ratios_alone(instance, calls):
    # data-side norms computed once per solve serve every later ratio of that
    # solve, in any order and for either alpha, without changing one bit
    from wedgelab.acceptance import _random_instance

    spec = _random_instance(instance)[2]
    fs = solve_problem(spec, 0.12, 1.0)
    for kind, alpha in calls:
        shared = RATIOS[kind](fs, spec, alpha)
        alone = RATIOS[kind](solve_problem(spec, 0.12, 1.0), spec, alpha)
        assert _bits(shared) == _bits(alone)


def test_specs_sharing_a_solve_get_their_own_data_norms():
    # two specs that differ only in g, measured against the same solution:
    # a data norm stored for one spec must not serve the other
    from wedgelab.acceptance import _random_instance

    spec_a = _random_instance(3)[2]
    spec_b = dataclasses.replace(spec_a, g_plus=(0.3, -0.2), g_minus=lambda x, y: np.stack([x, y], axis=-1))
    fs = solve_problem(spec_a, 0.12, 1.0)
    for kind in ("corner", "global"):
        got = [RATIOS[kind](fs, spec, 0.4) for spec in (spec_a, spec_b, spec_a, spec_b)]
        for spec, r in zip((spec_a, spec_b), got[:2]):
            fresh = FemSolution(fs.mesh, fs.values, fs.element_gradients, fs.diagnostics)
            assert _bits(r) == _bits(RATIOS[kind](fresh, spec, 0.4))
        assert got[0].rhs != got[1].rhs
        assert [_bits(r) for r in got[2:]] == [_bits(r) for r in got[:2]]


def test_corner_then_global_scan_each_data_norm_once(monkeypatch):
    # data-side scans on one solve: the corner and the global ratio share the
    # g-component norms on the full cloud (2 sides x 2 components) and the two
    # wall-trace norms; the interior ratio's own scans are unchanged
    import wedgelab.analysis as analysis
    from wedgelab.acceptance import _random_instance

    calls = []
    real, real_columns = analysis.plain_norm, analysis.plain_column_norms
    traces = {analysis.WALL_SAMPLES: "wall", analysis.ARC_SAMPLES: "arc"}

    def counted(field, k, alpha):
        calls.append("g" if k == 0 else traces.get(field.n, "lhs"))
        return real(field, k, alpha)

    def counted_columns(points, columns, alpha):
        calls.extend(["g"] * columns.shape[1])  # one norm per g component of a side
        return real_columns(points, columns, alpha)

    monkeypatch.setattr(analysis, "plain_norm", counted)
    monkeypatch.setattr(analysis, "plain_column_norms", counted_columns)

    def scans(kinds, fs):
        calls.clear()
        for kind in kinds:
            RATIOS[kind](fs, spec, 0.4)
        return {name: calls.count(name) for name in ("g", "wall", "arc", "lhs")}

    spec = _random_instance(0)[2]
    interior_alone = scans(["interior"], solve_problem(spec, 0.12, 1.0))
    assert interior_alone == {"g": 4, "wall": 0, "arc": 0, "lhs": 2}
    fs = solve_problem(spec, 0.12, 1.0)
    assert scans(["corner", "global"], fs) == {"g": 4, "wall": 2, "arc": 2, "lhs": 0}
    assert scans(["corner", "global"], fs) == {"g": 0, "wall": 0, "arc": 0, "lhs": 0}
    assert scans(["interior"], fs) == interior_alone


def test_solution_cloud_sides_are_indexed_once_per_solve(monkeypatch):
    # the corner ratio's g norm and the global ratio's lhs and g norm scan the
    # sides of the full solution cloud: one pair index per side and solve; a
    # field the caller holds gets a new index for each scan
    import wedgelab.norms as norms
    from wedgelab.acceptance import _random_instance
    from wedgelab.fem import solution_field

    built, real = [], norms.cKDTree

    def counted(points, *args, **kwargs):
        built.append(np.asarray(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(norms, "cKDTree", counted)
    spec = _random_instance(0)[2]
    for _ in range(2):  # a second solve builds its own
        fs = solve_problem(spec, 0.12, 1.0)
        cloud = solution_field(fs)
        sides = [cloud.points[cloud.regions == s] for s in (1, -1)]
        built.clear()
        RATIOS["corner"](fs, spec, 0.4)
        RATIOS["global"](fs, spec, 0.4)
        assert [sum(np.array_equal(p, side) for p in built) for side in sides] == [1, 1]

    upper, params = cloud.restrict(cloud.regions == 1), norms.NormParams(1, 0.4, tau=-0.5)
    built.clear()
    norms.weighted_norm(upper, params)
    norms.weighted_norm(upper, params)
    assert len(built) == 2 and all(np.array_equal(p, upper.points) for p in built)


class TestComparisonCheck:
    @pytest.fixture
    def quarter_case(self):
        # gamma > 1 example in the acute range with its calibrated barrier
        w = make_wedge(-PI / 4, PI / 3)
        gamma = singular_exponent(2.0, w)
        sol, jump = build_dirichlet_example(gamma, w)

        def v(x, y):
            return eval_separable_xy(sol, x, y)

        th = np.linspace(w.theta_minus, w.theta_plus, 181)
        arc = np.column_stack([np.cos(th), np.sin(th)])
        rr = np.linspace(0.01, 1.0, 90)
        walls = np.vstack(
            [
                np.column_stack(
                    [rr * math.cos(w.theta_plus), rr * math.sin(w.theta_plus)]
                ),
                np.column_stack(
                    [rr * math.cos(w.theta_minus), rr * math.sin(w.theta_minus)]
                ),
            ]
        )
        boundary = np.vstack([arc, walls])
        r_i = np.linspace(0.05, 0.95, 30)
        t_i = np.linspace(w.theta_minus + 1e-3, w.theta_plus - 1e-3, 61)
        R, T = np.meshgrid(r_i, t_i, indexing="ij")
        interior = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
        return w, gamma, v, boundary, interior

    def test_pipeline_passes(self, quarter_case):
        w, gamma, v, boundary, interior = quarter_case
        alpha = min(0.3, 0.8 * (gamma - 1.0))
        barrier = calibrate_barrier(v, alpha, 0.1, w, boundary)
        rep = comparison_check(v, barrier, boundary, interior)
        assert rep.passed
        assert rep.worst_boundary_ratio <= 1.0 + 1e-12

    def test_barrier_itself_has_unit_margin(self, quarter_case):
        w, _, _, boundary, interior = quarter_case
        barrier = Barrier(1.3, 0.3, 0.1, w)

        def v(x, y):
            return barrier_eval_xy(barrier, x, y)

        rep = comparison_check(v, barrier, boundary, interior)
        assert rep.passed
        assert rep.worst_interior_ratio == pytest.approx(1.0, abs=1e-12)

    def test_doubled_barrier_fails_on_boundary(self, quarter_case):
        w, _, _, boundary, interior = quarter_case
        barrier = Barrier(0.7, 0.3, 0.1, w)

        def v(x, y):
            return 2.0 * barrier_eval_xy(barrier, x, y)

        with pytest.raises(BoundaryHypothesisError):
            comparison_check(v, barrier, boundary, interior)

    def test_corrector_recovery_in_pipeline(self):
        # separable-plus-plane field: the corrector rebuilt from tangential
        # derivatives at the corner must match the plane that was added
        w = make_wedge(-PI / 4, PI / 3)
        gamma = singular_exponent(2.0, w)
        sol, jump = build_dirichlet_example(gamma, w)
        plane = corrector_solve(0.9, -0.2, jump.a0, w)
        c_plus = math.cos(w.theta_plus) * plane.a_star + math.sin(w.theta_plus) * plane.b_plus
        c_minus = math.cos(w.theta_minus) * plane.a_star + math.sin(w.theta_minus) * plane.b_minus
        rec = corrector_solve(c_plus, c_minus, jump.a0, w)
        assert rec.a_star == pytest.approx(plane.a_star, abs=1e-12)
        assert rec.b_plus == pytest.approx(plane.b_plus, abs=1e-12)
        assert rec.b_minus == pytest.approx(plane.b_minus, abs=1e-12)
