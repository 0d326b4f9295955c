import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wedgelab.exact_solutions import (
    ROOT_SCAN,
    Barrier,
    BarrierDomainError,
    DegenerateAngleError,
    NoSignChangeError,
    RootConvergenceError,
    SeparableSolution,
    SingularSystemError,
    TransmissionSignError,
    barrier_eval_xy,
    build_dirichlet_example,
    corrector_determinant,
    corrector_solve,
    default_exponent_bracket,
    eval_separable_xy,
    exponent_equation,
    grad_separable_xy,
    singular_exponent,
    singular_exponents,
    transmission_coeffs,
    _branch,
)
from wedgelab.geometry import make_wedge, wedge_angles

PI = math.pi
STRAIGHT = make_wedge(-PI / 4, 3 * PI / 4)  # walls form one straight line


def bisect_secant(a0, wedge, lo, hi, tol=1e-10, max_iter=200):
    """Reference root polish: bisection to ``tol``, then secant steps inside the last interval."""
    flo = float(exponent_equation(lo, a0, wedge))
    fhi = float(exponent_equation(hi, a0, wedge))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = float(exponent_equation(mid, a0, wedge))
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo <= tol:
            break
    x0, x1 = lo, hi
    f0, f1 = flo, fhi
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo - tol <= x2 <= hi + tol):
            break
        x0, f0 = x1, f1
        x1, f1 = x2, float(exponent_equation(x2, a0, wedge))
        if abs(x1 - x0) <= 1e-3 * tol:
            break
    return x1


def reference_roots(a0, wedge, lo, hi, polish=bisect_secant):
    """The cell-by-cell scan over ROOT_SCAN cells, each sign change polished by ``polish``."""
    grid = np.linspace(lo, hi, ROOT_SCAN + 1)
    vals = exponent_equation(grid, a0, wedge)
    roots = []
    for i in range(ROOT_SCAN):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(polish(a0, wedge, grid[i], grid[i + 1]))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def assert_close_roots(roots, expected, rel=1e-12):
    assert len(roots) == len(expected)
    for got, want in zip(roots, expected):
        assert abs(got - want) <= rel * abs(want), (got, want)


class TestTransmissionCoeffs:
    def test_straight_wall_jump(self):
        # closed forms: a0 = 2 + sqrt(5), A = tan(pi/10)
        tc = transmission_coeffs(0.8, STRAIGHT)
        assert tc.a0 == pytest.approx(2.0 + math.sqrt(5.0), abs=1e-12)
        assert tc.A == pytest.approx(math.tan(PI / 10.0), abs=1e-12)
        assert tc.C == pytest.approx(tc.a0 * tc.A)

    def test_continuous_coefficient_is_linear(self):
        tc = transmission_coeffs(1.0, STRAIGHT)
        assert tc.a0 == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_wedge_degenerate(self):
        theta = PI / 4
        w = make_wedge(-theta, theta)
        # the wall conditions factor as -(a0+1) sin(g t) cos(g t); at
        # g = pi/(2 theta) the cosine denominator vanishes
        with pytest.raises(DegenerateAngleError):
            transmission_coeffs(PI / (2 * theta), w)

    def test_nonpositive_jump_rejected(self):
        # below gamma = 2/3 the straight-wall family needs a0 <= 0
        with pytest.raises(TransmissionSignError):
            transmission_coeffs(0.5, STRAIGHT)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            transmission_coeffs(-0.5, STRAIGHT)


class TestSingularExponent:
    def test_round_trip_straight_wall(self):
        tc = transmission_coeffs(0.8, STRAIGHT)
        g = singular_exponent(tc.a0, STRAIGHT, bracket=(0.1, 1.5))
        assert g == pytest.approx(0.8, abs=1e-10)

    @pytest.mark.parametrize("theta", [PI / 6, PI / 4, PI / 3])
    @pytest.mark.parametrize("a0", [0.5, 2.0, 10.0])
    def test_symmetric_wedge_family(self, theta, a0):
        # wall conditions factor as -(a0+1)/2 sin(2 g theta): roots k pi/(2 theta)
        w = make_wedge(-theta, theta)
        assert singular_exponent(a0, w) == pytest.approx(PI / (2 * theta), abs=1e-8)

    def test_no_jump_straight_walls(self):
        assert singular_exponent(1.0, STRAIGHT) == pytest.approx(1.0, abs=1e-10)

    def test_no_sign_change_error(self):
        with pytest.raises(NoSignChangeError):
            singular_exponent(2.0 + math.sqrt(5.0), STRAIGHT, bracket=(0.05, 0.1))

    def test_all_roots_ascending(self):
        w = make_wedge(-PI / 3, PI / 3)
        roots = singular_exponents(2.0, w)
        assert roots == sorted(roots)
        assert roots[0] == pytest.approx(1.5, abs=1e-8)

    @pytest.mark.parametrize(
        "wedge",
        [STRAIGHT, make_wedge(-PI / 3, 2 * PI / 3), make_wedge(-0.5 * PI, 0.9 * PI)],
    )
    def test_round_trip_grid(self, wedge):
        # gamma values whose transmission data is valid must be recovered as
        # the smallest root of the exponent equation
        for g in np.arange(0.05, 1.5, 0.05):
            try:
                tc = transmission_coeffs(g, wedge)
            except (DegenerateAngleError, TransmissionSignError):
                continue
            lo, hi = 1e-3, min(PI / wedge.theta_plus, -PI / wedge.theta_minus) - 1e-3
            if not (lo < g < hi):
                continue
            back = singular_exponent(tc.a0, wedge)
            assert back == pytest.approx(g, abs=1e-8), f"gamma={g}"

    def test_rejects_nonpositive_jump(self):
        with pytest.raises(TransmissionSignError):
            singular_exponent(-1.0, STRAIGHT)
        with pytest.raises(TransmissionSignError):
            singular_exponent(math.nan, STRAIGHT)
        with pytest.raises(TransmissionSignError):
            corrector_solve(1.0, 0.0, -2.0, STRAIGHT)

    @pytest.mark.parametrize("tm, tp", [(-PI / 4, 3 * PI / 4), (-0.3, 1.2), (-2.5, 3.0), (-0.2, 6.0)])
    @pytest.mark.parametrize("a0", [0.05, 1.0, 4.236, 100.0])
    def test_scan_matches_cell_loop(self, tm, tp, a0):
        # reference: a cell-by-cell loop over the same grid, each sign change polished by brentq
        from scipy.optimize import brentq

        def polish(a0, w, lo, hi):
            return brentq(exponent_equation, lo, hi, args=(a0, w), xtol=1e-15)

        w = make_wedge(tm, tp)
        expected = reference_roots(a0, w, 0.01, 12.0, polish)
        assert len(expected) >= 2
        assert singular_exponents(a0, w, bracket=(0.01, 12.0)) == expected

    def test_brentq_matches_bisect_secant_on_grid(self):
        # 15 x 15 wedges x 7 jumps: each root within 1e-12 relative of the bisect-secant polish
        angles = np.linspace(0.2, 3.0, 15)
        count = 0
        for tp in angles:
            for tm in angles:
                w = make_wedge(-tm, tp)
                lo, hi = default_exponent_bracket(w)
                for a0 in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0):
                    roots = singular_exponents(a0, w)
                    assert_close_roots(roots, reference_roots(a0, w, lo, hi))
                    count += len(roots)
        assert count > 1500

    # reflex wedges up to openings 1e-6 short of 2 pi, the interface anywhere inside
    @settings(max_examples=150, deadline=None)
    @given(
        opening=st.one_of(
            st.floats(PI, 2 * PI - 1e-6),
            st.floats(-6.0, -1.0).map(lambda e: 2 * PI - 10.0**e),
        ),
        frac=st.floats(0.01, 0.99),
        log_a0=st.floats(-2.0, 2.0),
    )
    def test_brentq_matches_bisect_secant_on_reflex_wedges(self, opening, frac, log_a0):
        tm = -frac * opening
        w = make_wedge(tm, opening + tm)
        a0 = 10.0**log_a0
        lo, hi = default_exponent_bracket(w)
        assert_close_roots(singular_exponents(a0, w), reference_roots(a0, w, lo, hi))

    def test_unconverged_cell_raises(self, monkeypatch):
        import scipy.optimize

        def stalled(f, a, b, args=(), xtol=0.0, full_output=False, disp=True):
            info = scipy.optimize.RootResults(root=a, iterations=100, function_calls=100, flag=-2, method="brentq")
            return a, info

        monkeypatch.setattr(scipy.optimize, "brentq", stalled)
        with pytest.raises(RootConvergenceError):
            singular_exponents(2.0, make_wedge(-PI / 3, PI / 3))


def both_branch_field(s, x, y, side=None):
    """Reference value and gradient: both branches at every point, the side
    taken from theta except within 1e-14 of the interface ray, where ``side`` decides."""
    r = np.hypot(x, y)
    th = wedge_angles(s.wedge, x, y)
    upper = th >= 0.0
    if side is not None:
        upper = np.where(np.abs(th) < 1e-14, np.broadcast_to(np.asarray(side), th.shape) > 0, upper)
    g = s.gamma
    T = np.where(upper, s.A * np.sin(g * th) + s.B * np.cos(g * th), s.C * np.sin(g * th) + s.D * np.cos(g * th))
    dT = np.where(
        upper, g * (s.A * np.cos(g * th) - s.B * np.sin(g * th)), g * (s.C * np.cos(g * th) - s.D * np.sin(g * th))
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        rg1 = np.where(r > 0.0, r ** (g - 1.0), 0.0 if g > 1.0 else 1.0)
    ct, st = np.cos(th), np.sin(th)
    ur, ut = g * rg1 * T, rg1 * dT
    return r**g * T, (ur * ct - ut * st, ur * st + ut * ct)


def in_place_gradient(s, x, y, side=None):
    """``grad_separable_xy`` as it was written with in-place products: the bit-for-bit reference."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    if np.any((r == 0.0) & (s.gamma < 1.0)):
        raise ValueError("gradient is unbounded at the corner for gamma < 1")
    theta = wedge_angles(s.wedge, x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        rg1 = np.where(r > 0.0, r ** (s.gamma - 1.0), 0.0 if s.gamma > 1.0 else 1.0)
    del r
    a, b = _branch(s, theta, side)
    sg, cg = np.sin(s.gamma * theta), np.cos(s.gamma * theta)
    ur = a * sg
    ur += b * cg
    ut = a * cg
    del a, cg
    ut -= b * sg
    del b, sg
    ur *= s.gamma * rg1
    ut *= s.gamma
    ut *= rg1
    del rg1
    ct, st = np.cos(theta), np.sin(theta)
    del theta
    gx = ur * ct
    gx -= ut * st
    ur *= st
    ut *= ct
    ur += ut
    return gx, ur


class TestSeparableField:
    @pytest.fixture
    def example(self):
        sol, jump = build_dirichlet_example(0.8, STRAIGHT)
        return sol, jump

    def test_value_on_interface_is_b(self, example):
        sol, _ = example
        assert eval_separable_xy(sol, np.array([1.0]), np.array([0.0]))[0] == pytest.approx(sol.B)

    def test_interface_midpoint_value(self, example):
        sol, _ = example
        assert eval_separable_xy(sol, np.array([0.5]), np.array([0.0]))[0] == pytest.approx(
            0.5**0.8, abs=1e-14
        )

    def test_wall_vanishing(self, example):
        sol, _ = example
        r = np.geomspace(1e-3, 1.0, 40)
        for th in (STRAIGHT.theta_plus, STRAIGHT.theta_minus):
            vals = eval_separable_xy(sol, r * math.cos(th), r * math.sin(th))
            assert np.all(np.abs(vals) <= 1e-12 * r**0.8)

    def test_transmission_conditions_algebraic(self, example):
        sol, jump = example
        assert sol.B == sol.D  # trace continuity
        assert sol.C == pytest.approx(jump.a0 * sol.A, rel=1e-14)  # flux match

    def test_gradient_matches_finite_differences(self, example):
        sol, _ = example
        rng = np.random.default_rng(2)
        eps = 1e-7
        for _ in range(40):
            r = rng.uniform(0.2, 0.9)
            th = rng.uniform(STRAIGHT.theta_minus + 0.1, STRAIGHT.theta_plus - 0.1)
            if abs(th) < 0.05:
                continue  # keep the stencil inside one subdomain
            x, y = r * math.cos(th), r * math.sin(th)
            (gx,), (gy,) = grad_separable_xy(sol, np.array([x]), np.array([y]))
            fd_x = (
                eval_separable_xy(sol, np.array([x + eps]), np.array([y]))[0]
                - eval_separable_xy(sol, np.array([x - eps]), np.array([y]))[0]
            ) / (2 * eps)
            fd_y = (
                eval_separable_xy(sol, np.array([x]), np.array([y + eps]))[0]
                - eval_separable_xy(sol, np.array([x]), np.array([y - eps]))[0]
            ) / (2 * eps)
            assert gx == pytest.approx(fd_x, rel=1e-5, abs=1e-7)
            assert gy == pytest.approx(fd_y, rel=1e-5, abs=1e-7)

    def test_gradient_unbounded_at_corner(self, example):
        sol, _ = example
        with pytest.raises(ValueError):
            grad_separable_xy(sol, np.zeros(1), np.zeros(1))

    def test_harmonic_in_each_subdomain(self, example):
        # 5-point stencil consistency: |lap_h u| <= K h^2 with K fitted from
        # the coarser stencil width
        sol, _ = example

        def lap(x, y, h):
            pts_x = np.array([x + h, x - h, x, x, x])
            pts_y = np.array([y, y, y + h, y - h, y])
            vals = eval_separable_xy(sol, pts_x, pts_y)
            return (vals[0] + vals[1] + vals[2] + vals[3] - 4 * vals[4]) / h**2

        samples = [(0.5, 0.9), (0.7, 2.0), (0.4, -0.5), (0.8, 0.3), (0.6, -0.7)]
        h = 1e-3
        for r, th in samples:
            x, y = r * math.cos(th), r * math.sin(th)
            coarse = abs(lap(x, y, 2 * h))
            K = 1.5 * coarse / (2 * h) ** 2
            assert abs(lap(x, y, h)) <= max(K * h**2, 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        u_minus=st.floats(1e-3, 1.0 - 1e-3),
        u_plus=st.floats(1e-3, 1.0 - 1e-3),
        gamma=st.floats(0.2, 3.0),
        coeffs=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_branch_matches_both_branch_reference(self, u_minus, u_plus, gamma, coeffs, seed):
        # any wedge, also past +-pi; off the ray the side passed agrees with theta
        tm = -2 * PI * u_minus
        w = make_wedge(tm, u_plus * (2 * PI + tm))
        sol = SeparableSolution(gamma, *coeffs, wedge=w)
        rng = np.random.default_rng(seed)
        r = rng.uniform(1e-3, 1.0, 300)
        th = rng.uniform(w.theta_minus, w.theta_plus, 300)
        x, y = r * np.cos(th), r * np.sin(th)
        off = np.abs(wedge_angles(w, x, y)) >= 1e-14
        x, y = x[off], y[off]
        side = np.where(wedge_angles(w, x, y) >= 0.0, 1, -1)
        vals, (gx, gy) = both_branch_field(sol, x, y, side)
        assert np.array_equal(eval_separable_xy(sol, x, y), vals)
        for got, want in zip(grad_separable_xy(sol, x, y, side), (gx, gy)):
            assert np.array_equal(got, want)
        for got, want in zip(grad_separable_xy(sol, x, y), (gx, gy)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("side", [1, -1])
    def test_side_picks_the_branch_on_the_ray(self, example, side):
        sol, _ = example
        x, y = np.linspace(0.1, 1.0, 10), np.zeros(10)
        _, want = both_branch_field(sol, x, y, side)
        for got, ref in zip(grad_separable_xy(sol, x, y, side), want):
            assert np.array_equal(got, ref)
        # the lower branch differs from the default (upper) one there
        assert np.array_equal(grad_separable_xy(sol, x, y)[1], want[1]) == (side == 1)

    @settings(max_examples=100, deadline=None)
    @given(
        u_minus=st.floats(1e-3, 1.0 - 1e-3),
        u_plus=st.floats(1e-3, 1.0 - 1e-3),
        gamma=st.floats(0.2, 3.0),
        coeffs=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        side_kind=st.sampled_from(["none", "scalar", "array"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_equals_in_place_reference(self, u_minus, u_plus, gamma, coeffs, side_kind, seed):
        tm = -2 * PI * u_minus
        sol = SeparableSolution(gamma, *coeffs, wedge=make_wedge(tm, u_plus * (2 * PI + tm)))
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        r = rng.uniform(0.0, 1.0, n) ** 3
        if gamma >= 1.0:
            r[0] = 0.0  # the corner, where the gradient is bounded
        th = rng.uniform(-PI, PI, n)
        x, y = r * np.cos(th), r * np.sin(th)
        side = {"none": None, "scalar": int(rng.choice([-1, 1])), "array": rng.choice([-1, 1], n)}[side_kind]
        for got, want in zip(grad_separable_xy(sol, x, y, side), in_place_gradient(sol, x, y, side)):
            assert np.array_equal(got, want)

    def test_grad_side_selection_on_interface(self, example):
        sol, jump = example
        x = np.array([0.5])
        y = np.array([0.0])
        _, gy_up = grad_separable_xy(sol, x, y, side=1)
        _, gy_dn = grad_separable_xy(sol, x, y, side=-1)
        # conormal flux continuity: a0 * du+/dtheta = du-/dtheta on the ray
        assert jump.a0 * gy_up[0] == pytest.approx(gy_dn[0], rel=1e-12)


class TestCorrector:
    def test_hand_solved_example(self):
        # eliminating by hand with theta = +-pi/4, a0 = 2:
        # a* + b+ = sqrt(2), a* = b-, b- = 2 b+  =>  b+ = sqrt(2)/3
        w = make_wedge(-PI / 4, PI / 4)
        c = corrector_solve(1.0, 0.0, 2.0, w)
        assert c.a_star == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-14)
        assert c.b_plus == pytest.approx(math.sqrt(2) / 3, abs=1e-14)
        assert c.b_minus == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-14)

    def test_globally_linear_solution(self):
        w = make_wedge(-PI / 3, PI / 4)
        c = corrector_solve(math.cos(w.theta_plus), math.cos(w.theta_minus), 1.0, w)
        assert c.a_star == pytest.approx(1.0, abs=1e-14)
        assert abs(c.b_plus) < 1e-14 and abs(c.b_minus) < 1e-14

    def test_determinant_value(self):
        w = make_wedge(-PI / 4, PI / 4)
        assert corrector_determinant(1.0, w) == pytest.approx(-1.0, abs=1e-14)

    def test_singular_system(self):
        # on the straight-wall wedge a continuous coefficient leaves the
        # normal derivative undetermined by tangential data
        with pytest.raises(SingularSystemError):
            corrector_solve(1.0, 0.0, 1.0, STRAIGHT)

    def test_random_battery_residuals(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            tp = rng.uniform(0.2, 1.45)
            tm = -rng.uniform(0.2, 1.45)
            a0 = rng.uniform(0.2, 5.0)
            w = make_wedge(tm, tp)
            if abs(corrector_determinant(a0, w)) < 1e-6:
                continue
            cp, cm = rng.uniform(-2, 2, size=2)
            c = corrector_solve(cp, cm, a0, w)
            res = np.array(
                [
                    math.cos(tp) * c.a_star + math.sin(tp) * c.b_plus - cp,
                    math.cos(tm) * c.a_star + math.sin(tm) * c.b_minus - cm,
                    a0 * c.b_plus - c.b_minus,
                ]
            )
            scale = max(abs(cp), abs(cm), 1.0)
            assert np.abs(res).max() <= 1e-12 * scale

    @pytest.mark.parametrize("c_plus, c_minus", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, math.nan)])
    def test_nonfinite_wall_derivatives_rejected(self, c_plus, c_minus):
        with pytest.raises(ValueError, match="finite"):
            corrector_solve(c_plus, c_minus, 2.0, make_wedge(-PI / 4, PI / 4))

    def test_jump_condition_invariant(self):
        w = make_wedge(-PI / 4, PI / 3)
        c = corrector_solve(0.3, -1.1, 2.5, w)
        assert 2.5 * c.b_plus == pytest.approx(c.b_minus, rel=1e-12)

    # the 1e-6 margins keep the walls at least ~1e-11 rad from each other
    # and from the interface; closer than the rounding of their angles
    # (~1e-16), a wall point's side is decided by rounding
    @settings(max_examples=200, deadline=None)
    @given(
        u_minus=st.floats(1e-6, 1.0 - 1e-6),
        u_plus=st.floats(1e-6, 1.0 - 1e-6),
        c_plus=st.floats(-2.0, 2.0),
        c_minus=st.floats(-2.0, 2.0),
        a0=st.floats(0.1, 10.0),
    )
    @example(u_minus=0.125, u_plus=5 / 7, c_plus=0.7, c_minus=-0.4, a0=2.0)
    def test_wall_values_on_any_wedge(self, u_minus, u_plus, c_plus, c_minus, a0):
        # theta_minus in (-2pi, 0), theta_plus in (0, 2pi + theta_minus): the
        # walls may reach past +-pi, where the sign of y is not the side
        tm = -2 * PI * u_minus
        w = make_wedge(tm, u_plus * (2 * PI + tm))
        assume(abs(corrector_determinant(a0, w)) > 1e-3)
        c = corrector_solve(c_plus, c_minus, a0, w)
        r = np.linspace(0.1, 1.0, 10)
        for th, cw in ((w.theta_plus, c_plus), (w.theta_minus, c_minus)):
            vals = c.eval_xy(r * math.cos(th), r * math.sin(th))
            assert np.max(np.abs(vals - cw * r)) <= 1e-10


class TestBarrier:
    @pytest.fixture
    def quarter(self):
        return make_wedge(-PI / 4, PI / 4)

    def test_unit_value_on_interface(self, quarter):
        b = Barrier(1.0, 0.3, 0.2, quarter)
        assert barrier_eval_xy(b, np.array([1.0]), np.array([0.0]))[0] == pytest.approx(1.0)

    def test_power_decay(self, quarter):
        b = Barrier(1.0, 0.3, 0.2, quarter)
        assert barrier_eval_xy(b, np.array([0.5]), np.array([0.0]))[0] == pytest.approx(
            0.5**1.3, abs=1e-14
        )

    def test_angle_bound_violated_for_wide_wedge(self):
        # min(pi/(2 t+), -pi/(2 t-)) = 2/3 < 1 + alpha + tau0 always
        with pytest.raises(BarrierDomainError):
            Barrier(1.0, 0.3, 0.2, STRAIGHT)

    def test_positive_inside_wedge(self, quarter):
        b = Barrier(2.0, 0.3, 0.2, quarter)
        th = np.linspace(quarter.theta_minus, quarter.theta_plus, 101)
        r = np.linspace(0.01, 1.0, 21)
        R, T = np.meshgrid(r, th)
        vals = barrier_eval_xy(b, (R * np.cos(T)).ravel(), (R * np.sin(T)).ravel())
        assert np.all(vals > 0)

    def test_exponent_ranges_enforced(self, quarter):
        with pytest.raises(ValueError):
            Barrier(1.0, 1.2, 0.2, quarter)
        with pytest.raises(ValueError):
            Barrier(0.0, 0.3, 0.2, quarter)


class TestExponentEquation:
    def test_vectorized_and_sign_structure(self):
        g = np.linspace(0.1, 1.0, 50)
        w = make_wedge(-PI / 4, PI / 3)
        vals = exponent_equation(g, 2.0, w)
        assert vals.shape == g.shape
        # no root at or below gamma = 1 when both half-angles are acute
        assert np.all(vals < 0)
