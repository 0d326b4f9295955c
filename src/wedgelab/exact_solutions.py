"""Closed-form singular solutions for a piecewise-constant coefficient jump.

On the wedge split by theta = 0, separable fields

    u(r, theta) = r^gamma * (A sin(gamma theta) + B cos(gamma theta))   above,
                  r^gamma * (C sin(gamma theta) + D cos(gamma theta))   below,

are harmonic in each subdomain.  They solve div(a grad u) = 0 weakly for the
coefficient a = a0 above / 1 below exactly when the trace and conormal-flux
matching conditions hold on the interface: B = D and a0*A = C.  Requiring the
field to vanish on both walls ties the jump a0 to the exponent gamma:

    A  = -cos(gamma theta_plus) / sin(gamma theta_plus),
    a0 =  sin(gamma theta_plus) cos(gamma theta_minus)
        / (cos(gamma theta_plus) sin(gamma theta_minus)).

Inverting that relation for gamma at given a0 is a root-finding problem for
``exponent_equation``; the smallest positive root governs the corner
regularity.  The module also provides the piecewise-linear corrector (the
plane matching prescribed tangential wall derivatives subject to the flux
jump) and the power-cosine barrier used for pointwise comparison bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Wedge, wedge_angles

_DEGENERACY_TOL = 1e-14
ROOT_SCAN = 1024  # cells of the sign-change scan of the exponent equation
ROOT_TOL = 1e-10  # bisection interval width at which the secant polish starts
ROOT_MAX_ITER = 200  # most bisection steps per root


class DegenerateAngleError(ValueError):
    """A trigonometric denominator vanishes for this (gamma, wedge) pair."""


class TransmissionSignError(ValueError):
    """The wall conditions force a nonpositive jump: no elliptic coefficient."""


class NoSignChangeError(ValueError):
    """Root bracketing failed: no sign change in the requested interval."""


class RootConvergenceError(RuntimeError):
    """Bisection/secant iteration failed to reach tolerance."""


class SingularSystemError(ValueError):
    """The corrector system is singular (solvability condition fails)."""


class BarrierDomainError(ValueError):
    """No positive barrier exists: the angle bound is violated."""


@dataclass(frozen=True)
class CoefficientJump:
    """Coefficient value in the upper subdomain; the lower value is 1."""

    a0: float

    def __post_init__(self):
        if not self.a0 > 0.0:
            raise TransmissionSignError(f"coefficient jump must be positive, got {self.a0}")


@dataclass(frozen=True)
class SeparableSolution:
    gamma: float
    A: float
    B: float
    C: float
    D: float
    wedge: Wedge

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError(f"exponent must be positive, got {self.gamma}")


@dataclass(frozen=True)
class TransmissionCoefficients:
    A: float
    a0: float

    @property
    def C(self) -> float:
        return self.a0 * self.A


@dataclass(frozen=True)
class Corrector:
    """Plane p = a_star*x1 + b_plus*x2 above / a_star*x1 + b_minus*x2 below."""

    a_star: float
    b_plus: float
    b_minus: float
    wedge: Wedge

    def eval_xy(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        b = np.where(wedge_angles(self.wedge, x, y) >= 0.0, self.b_plus, self.b_minus)
        return self.a_star * x + b * y


@dataclass(frozen=True)
class Barrier:
    """w = amplitude * r^(1+alpha) * cos((1+alpha+tau0) * theta), positive in the wedge."""

    amplitude: float
    alpha: float
    tau0: float
    wedge: Wedge

    def __post_init__(self):
        if not self.amplitude > 0.0:
            raise ValueError(f"barrier amplitude must be positive, got {self.amplitude}")
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.tau0 < 1.0):
            raise ValueError("barrier exponents alpha, tau0 must lie in (0, 1)")
        bound = barrier_angle_bound(self.wedge)
        if not (1.0 + self.alpha + self.tau0 < bound):
            raise BarrierDomainError(
                f"1 + alpha + tau0 = {1.0 + self.alpha + self.tau0:.6g} must be < "
                f"min(pi/(2 theta_plus), -pi/(2 theta_minus)) = {bound:.6g}"
            )


def barrier_angle_bound(w: Wedge) -> float:
    return min(math.pi / (2.0 * w.theta_plus), -math.pi / (2.0 * w.theta_minus))


def transmission_coeffs(gamma: float, wedge: Wedge) -> TransmissionCoefficients:
    """Coefficients (A, a0) of the wall-vanishing separable solution, B = D = 1.

    Raises ``DegenerateAngleError`` when a denominator vanishes and
    ``TransmissionSignError`` when the resulting jump a0 is nonpositive.
    """
    if not gamma > 0.0:
        raise ValueError(f"exponent must be positive, got {gamma}")
    sp = math.sin(gamma * wedge.theta_plus)
    cp = math.cos(gamma * wedge.theta_plus)
    sm = math.sin(gamma * wedge.theta_minus)
    cm = math.cos(gamma * wedge.theta_minus)
    if abs(sp) < _DEGENERACY_TOL or abs(cp) < _DEGENERACY_TOL or abs(sm) < _DEGENERACY_TOL:
        raise DegenerateAngleError(
            f"gamma = {gamma} is degenerate for wedge "
            f"({wedge.theta_minus}, {wedge.theta_plus})"
        )
    a0 = (sp * cm) / (cp * sm)
    if not a0 > 0.0:
        raise TransmissionSignError(
            f"wall conditions force a0 = {a0:.6g} <= 0: no elliptic coefficient "
            f"realizes gamma = {gamma} on this wedge"
        )
    return TransmissionCoefficients(A=-cp / sp, a0=a0)


def build_dirichlet_example(gamma: float, wedge: Wedge):
    """Separable solution vanishing on both walls, plus its coefficient jump."""
    tc = transmission_coeffs(gamma, wedge)
    sol = SeparableSolution(gamma=gamma, A=tc.A, B=1.0, C=tc.a0 * tc.A, D=1.0, wedge=wedge)
    return sol, CoefficientJump(tc.a0)


def exponent_equation(gamma, a0: float, wedge: Wedge):
    """F(gamma) whose roots are the admissible singular exponents for jump a0.

    F(gamma) = a0 cos(g t+) sin(g t-) - sin(g t+) cos(g t-); vectorized.
    """
    g = np.asarray(gamma, dtype=float)
    tp, tm = wedge.theta_plus, wedge.theta_minus
    return a0 * np.cos(g * tp) * np.sin(g * tm) - np.sin(g * tp) * np.cos(g * tm)


def default_exponent_bracket(wedge: Wedge) -> tuple[float, float]:
    hi = min(math.pi / wedge.theta_plus, -math.pi / wedge.theta_minus)
    return (1e-3, hi - 1e-3)


def singular_exponents(a0, wedge: Wedge, bracket: tuple[float, float] | None = None) -> list[float]:
    """All roots of the exponent equation in the bracket, ascending.

    The bracket is cut into ROOT_SCAN cells; a grid point where the equation
    is exactly 0 is a root, and each cell whose ends differ in sign is
    bisected to ROOT_TOL and polished by secant steps.
    """
    a0v = a0.a0 if isinstance(a0, CoefficientJump) else float(a0)
    if a0v <= 0.0:
        raise TransmissionSignError(f"coefficient jump must be positive, got {a0v}")
    lo, hi = bracket if bracket is not None else default_exponent_bracket(wedge)
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid bracket ({lo}, {hi})")
    grid = np.linspace(lo, hi, ROOT_SCAN + 1)
    vals = exponent_equation(grid, a0v, wedge)
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    found = [_bisect_secant(a0v, wedge, grid[i], grid[i + 1]) for i in cells]
    return sorted([float(g) for g in grid[vals == 0.0]] + found)


def singular_exponent(a0, wedge: Wedge, bracket: tuple[float, float] | None = None) -> float:
    """Smallest root of the exponent equation in the bracket.

    Scans the bracket for the first sign change, bisects, then polishes with
    a few secant steps.  Raises ``NoSignChangeError`` when the scan finds no
    root.
    """
    roots = singular_exponents(a0, wedge, bracket)
    if not roots:
        lo, hi = bracket if bracket is not None else default_exponent_bracket(wedge)
        raise NoSignChangeError(
            f"exponent equation has no sign change on ({lo:.6g}, {hi:.6g}) "
            f"for a0 = {a0}"
        )
    return roots[0]


def _bisect_secant(a0: float, wedge: Wedge, lo: float, hi: float) -> float:
    flo = float(exponent_equation(lo, a0, wedge))
    fhi = float(exponent_equation(hi, a0, wedge))
    for _ in range(ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = float(exponent_equation(mid, a0, wedge))
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo <= ROOT_TOL:
            break
    else:
        raise RootConvergenceError(
            f"bisection did not reach tol {ROOT_TOL} within {ROOT_MAX_ITER} iterations"
        )
    # secant polish inside the final bisection interval
    x0, x1 = lo, hi
    f0, f1 = flo, fhi
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo - ROOT_TOL <= x2 <= hi + ROOT_TOL):
            break
        x0, f0 = x1, f1
        x1, f1 = x2, float(exponent_equation(x2, a0, wedge))
        if abs(x1 - x0) <= 1e-3 * ROOT_TOL:
            break
    return x1


def _branch_masks(theta, side=None):
    th = np.asarray(theta, dtype=float)
    if side is None:
        return th >= 0.0
    sd = np.broadcast_to(np.asarray(side), th.shape)
    on_iface = np.abs(th) < 1e-14
    return np.where(on_iface, sd > 0, th >= 0.0)


def _theta_profile(s: SeparableSolution, theta, side=None):
    th = np.asarray(theta, dtype=float)
    upper = s.A * np.sin(s.gamma * th) + s.B * np.cos(s.gamma * th)
    lower = s.C * np.sin(s.gamma * th) + s.D * np.cos(s.gamma * th)
    return np.where(_branch_masks(th, side), upper, lower)


def _theta_profile_deriv(s: SeparableSolution, theta, side=None):
    th = np.asarray(theta, dtype=float)
    upper = s.gamma * (s.A * np.cos(s.gamma * th) - s.B * np.sin(s.gamma * th))
    lower = s.gamma * (s.C * np.cos(s.gamma * th) - s.D * np.sin(s.gamma * th))
    return np.where(_branch_masks(th, side), upper, lower)


def eval_separable_xy(s: SeparableSolution, x, y):
    """Vectorized value at Cartesian points; points with theta >= 0 use the upper branch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    theta = wedge_angles(s.wedge, x, y)
    return r**s.gamma * _theta_profile(s, theta)


def grad_separable_xy(s: SeparableSolution, x, y, side=None):
    """Vectorized Cartesian gradient.

    ``side`` (+1/-1, scalar or array) forces the branch used on the
    interface; by default points with theta >= 0 use the upper branch.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    if np.any((r == 0.0) & (s.gamma < 1.0)):
        raise ValueError("gradient is unbounded at the corner for gamma < 1")
    theta = wedge_angles(s.wedge, x, y)
    T = _theta_profile(s, theta, side)
    dT = _theta_profile_deriv(s, theta, side)
    with np.errstate(divide="ignore", invalid="ignore"):
        rg1 = np.where(r > 0.0, r ** (s.gamma - 1.0), 0.0 if s.gamma > 1.0 else 1.0)
    ct, st = np.cos(theta), np.sin(theta)
    ur = s.gamma * rg1 * T
    ut = rg1 * dT
    return ur * ct - ut * st, ur * st + ut * ct


def corrector_determinant(a0: float, wedge: Wedge) -> float:
    """Solvability functional a0 cos(t+) sin(t-) - sin(t+) cos(t-): the exponent equation at gamma = 1.

    So the corrector system is singular exactly when gamma = 1 is a singular exponent.
    """
    return float(exponent_equation(1.0, a0, wedge))


def corrector_solve(c_plus: float, c_minus: float, a0, wedge: Wedge) -> Corrector:
    """Plane with prescribed tangential wall derivatives and matched flux.

    Solves
        cos(t+) a* + sin(t+) b+            = c+
        cos(t-) a*            + sin(t-) b- = c-
                     a0 b+    -        b-  = 0
    and verifies the residual to 1e-12 relative.
    """
    a0v = a0.a0 if isinstance(a0, CoefficientJump) else float(a0)
    det = corrector_determinant(a0v, wedge)
    if abs(det) < _DEGENERACY_TOL:
        raise SingularSystemError(
            f"corrector system is singular: a0 cos(t+) sin(t-) - sin(t+) cos(t-) "
            f"= {det:.3g}"
        )
    tp, tm = wedge.theta_plus, wedge.theta_minus
    M = np.array(
        [
            [math.cos(tp), math.sin(tp), 0.0],
            [math.cos(tm), 0.0, math.sin(tm)],
            [0.0, a0v, -1.0],
        ]
    )
    rhs = np.array([c_plus, c_minus, 0.0])
    sol = np.linalg.solve(M, rhs)
    residual = np.linalg.norm(M @ sol - rhs) / max(np.linalg.norm(rhs), 1.0)
    if residual > 1e-12:
        raise SingularSystemError(f"corrector solve residual {residual:.3g} exceeds 1e-12")
    return Corrector(
        a_star=float(sol[0]), b_plus=float(sol[1]), b_minus=float(sol[2]), wedge=wedge
    )


def barrier_eval_xy(b: Barrier, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    theta = wedge_angles(b.wedge, x, y)
    nu = 1.0 + b.alpha + b.tau0
    return b.amplitude * r ** (1.0 + b.alpha) * np.cos(nu * theta)
