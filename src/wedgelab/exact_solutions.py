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
jump), the power-cosine barrier used for pointwise comparison bounds, and
the smooth manufactured solution u = sin x cos y of the identity coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Wedge, wedge_angles

_DEGENERACY_TOL = 1e-14
ROOT_SCAN = 1024  # cells of the sign-change scan of the exponent equation


class DegenerateAngleError(ValueError):
    """A trigonometric denominator vanishes for this (gamma, wedge) pair."""


class TransmissionSignError(ValueError):
    """The wall conditions force a nonpositive jump: no elliptic coefficient."""


class NoSignChangeError(ValueError):
    """Root bracketing failed: no sign change in the requested interval."""


class RootConvergenceError(RuntimeError):
    """Brent's method did not converge in a sign-change cell."""


class SingularSystemError(ValueError):
    """The corrector system is singular (solvability condition fails)."""


class BarrierDomainError(ValueError):
    """No positive barrier exists: the angle bound is violated."""


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


def build_dirichlet_example(gamma: float, wedge: Wedge) -> tuple[SeparableSolution, TransmissionCoefficients]:
    """Separable solution vanishing on both walls, plus its transmission coefficients (jump ``.a0``)."""
    tc = transmission_coeffs(gamma, wedge)
    sol = SeparableSolution(gamma=gamma, A=tc.A, B=1.0, C=tc.a0 * tc.A, D=1.0, wedge=wedge)
    return sol, tc


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


def singular_exponents(a0: float, wedge: Wedge, bracket: tuple[float, float] | None = None) -> list[float]:
    """All roots of the exponent equation in the bracket, ascending.

    The bracket is cut into ROOT_SCAN cells; a grid point where the equation
    is exactly 0 is a root, and each cell whose ends differ in sign is
    polished by Brent's method.  Raises ``RootConvergenceError`` when a cell
    does not converge.
    """
    # imported here, not at module level: scipy.optimize adds 0.1-0.2 s to
    # importing the package, and runs that start from gamma need no root
    from scipy.optimize import brentq

    if not a0 > 0.0:
        raise TransmissionSignError(f"coefficient jump must be positive, got {a0}")
    lo, hi = bracket if bracket is not None else default_exponent_bracket(wedge)
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid bracket ({lo}, {hi})")
    grid = np.linspace(lo, hi, ROOT_SCAN + 1)
    vals = exponent_equation(grid, a0, wedge)
    found = []
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        root, info = brentq(
            exponent_equation, grid[i], grid[i + 1], args=(a0, wedge),
            xtol=1e-15, full_output=True, disp=False,
        )
        if not info.converged:
            raise RootConvergenceError(
                f"brentq did not converge on ({grid[i]:.17g}, {grid[i + 1]:.17g}): {info.flag}"
            )
        found.append(root)
    return sorted([float(g) for g in grid[vals == 0.0]] + found)


def singular_exponent(a0: float, wedge: Wedge, bracket: tuple[float, float] | None = None) -> float:
    """Smallest root of the exponent equation in the bracket (see ``singular_exponents``).

    Raises ``NoSignChangeError`` when the scan finds no root.
    """
    roots = singular_exponents(a0, wedge, bracket)
    if not roots:
        lo, hi = bracket if bracket is not None else default_exponent_bracket(wedge)
        raise NoSignChangeError(
            f"exponent equation has no sign change on ({lo:.6g}, {hi:.6g}) "
            f"for a0 = {a0}"
        )
    return roots[0]


def _branch(s: SeparableSolution, theta, side=None):
    """Per-point (sin, cos) coefficients: (A, B) on the upper side, (C, D) on the lower.

    A passed ``side`` (+1/-1, scalar or array) decides the side; otherwise
    theta >= 0 does.
    """
    upper = theta >= 0.0 if side is None else np.asarray(side) > 0
    return np.where(upper, s.A, s.C), np.where(upper, s.B, s.D)


def eval_separable_xy(s: SeparableSolution, x, y):
    """Vectorized value at Cartesian points; points with theta >= 0 use the upper branch."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    theta = wedge_angles(s.wedge, x, y)
    a, b = _branch(s, theta)
    return r**s.gamma * (a * np.sin(s.gamma * theta) + b * np.cos(s.gamma * theta))


def grad_separable_xy(s: SeparableSolution, x, y, side=None):
    """Vectorized Cartesian gradient.

    ``side`` (+1/-1, scalar or array) picks the branch; by default points
    with theta >= 0 use the upper branch.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    if np.any((r == 0.0) & (s.gamma < 1.0)):
        raise ValueError("gradient is unbounded at the corner for gamma < 1")
    theta = wedge_angles(s.wedge, x, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        rg1 = np.where(r > 0.0, r ** (s.gamma - 1.0), 0.0 if s.gamma > 1.0 else 1.0)
    a, b = _branch(s, theta, side)
    sg, cg = np.sin(s.gamma * theta), np.cos(s.gamma * theta)
    ur = (a * sg + b * cg) * (s.gamma * rg1)
    ut = (a * cg - b * sg) * s.gamma * rg1
    ct, st = np.cos(theta), np.sin(theta)
    return ur * ct - ut * st, ur * st + ut * ct


def corrector_determinant(a0: float, wedge: Wedge) -> float:
    """Solvability functional a0 cos(t+) sin(t-) - sin(t+) cos(t-): the exponent equation at gamma = 1.

    So the corrector system is singular exactly when gamma = 1 is a singular exponent.
    """
    return float(exponent_equation(1.0, a0, wedge))


def corrector_solve(c_plus: float, c_minus: float, a0: float, wedge: Wedge) -> Corrector:
    """Plane with prescribed tangential wall derivatives and matched flux.

    Solves
        cos(t+) a* + sin(t+) b+            = c+
        cos(t-) a*            + sin(t-) b- = c-
                     a0 b+    -        b-  = 0
    and verifies the residual to 1e-12 relative.  Raises
    ``TransmissionSignError`` unless a0 > 0, and ``ValueError`` for a
    non-finite c+ or c-.
    """
    if not a0 > 0.0:
        raise TransmissionSignError(f"coefficient jump must be positive, got {a0}")
    if not (math.isfinite(c_plus) and math.isfinite(c_minus)):
        raise ValueError(f"wall derivatives must be finite, got c+ = {c_plus}, c- = {c_minus}")
    det = corrector_determinant(a0, wedge)
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
            [0.0, a0, -1.0],
        ]
    )
    rhs = np.array([c_plus, c_minus, 0.0])
    sol = np.linalg.solve(M, rhs)
    residual = np.linalg.norm(M @ sol - rhs) / max(np.linalg.norm(rhs), 1.0)
    if not residual <= 1e-12:  # NaN fails too
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


def manufactured_value(x, y):
    """u = sin x cos y: a smooth solution of div(grad u) = manufactured_load with trace u."""
    return np.sin(np.asarray(x)) * np.cos(np.asarray(y))


def manufactured_grad(x, y, side=None):
    """Gradient of ``manufactured_value``; smooth, so ``side`` is ignored."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)


def manufactured_load(x, y):
    """h = lap(sin x cos y) = -2 sin x cos y; the load only for the identity coefficient."""
    return -2.0 * np.sin(np.asarray(x)) * np.cos(np.asarray(y))
