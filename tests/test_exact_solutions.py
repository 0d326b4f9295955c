import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wedgelab.exact_solutions import (
    ROOT_SCAN,
    Barrier,
    BarrierDomainError,
    CoefficientJump,
    DegenerateAngleError,
    NoSignChangeError,
    SingularSystemError,
    TransmissionSignError,
    barrier_eval_xy,
    build_dirichlet_example,
    corrector_determinant,
    corrector_solve,
    eval_separable_xy,
    exponent_equation,
    grad_separable_xy,
    singular_exponent,
    singular_exponents,
    transmission_coeffs,
    _bisect_secant,
)
from wedgelab.geometry import make_wedge

PI = math.pi
STRAIGHT = make_wedge(-PI / 4, 3 * PI / 4)  # walls form one straight line


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

    @pytest.mark.parametrize("tm, tp", [(-PI / 4, 3 * PI / 4), (-0.3, 1.2), (-2.5, 3.0), (-0.2, 6.0)])
    @pytest.mark.parametrize("a0", [0.05, 1.0, 4.236, 100.0])
    def test_scan_matches_cell_loop(self, tm, tp, a0):
        # reference: the cell-by-cell loop the vectorized scan replaced
        w = make_wedge(tm, tp)
        grid = np.linspace(0.01, 12.0, ROOT_SCAN + 1)
        vals = exponent_equation(grid, a0, w)
        expected = []
        for i in range(ROOT_SCAN):
            if vals[i] == 0.0:
                expected.append(float(grid[i]))
            elif vals[i] * vals[i + 1] < 0.0:
                expected.append(_bisect_secant(a0, w, grid[i], grid[i + 1]))
        if vals[-1] == 0.0:
            expected.append(float(grid[-1]))
        assert len(expected) >= 2
        assert singular_exponents(a0, w, bracket=(0.01, 12.0)) == expected


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

    def test_jump_type_accepts_wrapper(self):
        w = make_wedge(-PI / 3, PI / 3)
        assert singular_exponent(CoefficientJump(2.0), w) == pytest.approx(1.5, abs=1e-8)
