"""Empirical regularity diagnostics for solved fields.

Fits the corner decay exponent from log-log regression of the angular sup,
measures conormal-flux jumps across the interface, forms the measured
left/right-hand sides of the interior, corner, and global a-priori
estimates as ratios, and runs the barrier comparison check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .exact_solutions import Barrier, barrier_eval_xy
from .fem import FemSolution, ProblemSpec, solution_field
from .geometry import interface_edges
from .norms import NormParams, SampledField, plain_column_norms, plain_norm, weighted_norm, with_pair_index

DEGENERATE_RHS = 1e-13
RAY_INSET = 0.02  # fraction of the opening kept clear of each wall by default_rays
CORNER_INNER_FRACTION = 0.5  # inner sector radius of the corner estimate, in units of R
WALL_SAMPLES = 60  # trace samples per wall ray
ARC_SAMPLES = 120  # trace samples per arc branch
INTERIOR_SLACK = 1e-8  # relative slack of the interior comparison check
BOUNDARY_SLACK = 1e-12  # relative slack of the boundary hypothesis |v| <= w
LOCATE_TOL = 1e-6  # barycentric coordinates down to -LOCATE_TOL count as inside


class FitError(ValueError):
    """Exponent regression is ill-posed for the given samples."""


class BoundaryHypothesisError(ValueError):
    """|v| <= w fails on the boundary samples: the comparison check is vacuous."""


@dataclass
class ExponentFit:
    beta: float
    intercept: float
    r_squared: float
    per_ray: dict[float, float]
    sup_values: np.ndarray  # (n_radii,) angular sup of |u - u(corner)|
    radii: np.ndarray


@dataclass
class EstimateRatio:
    lhs: float
    rhs: float
    kind: str
    descriptor: str = ""
    status: str = "ok"  # "ok" or "degenerate"

    @property
    def ratio(self) -> float | None:
        if self.status != "ok":
            return None
        return self.lhs / self.rhs


@dataclass
class FluxJumpReport:
    max_jump: float
    mean_jump: float
    n_edges: int


@dataclass
class ComparisonReport:
    passed: bool
    worst_boundary_ratio: float
    worst_interior_ratio: float
    n_boundary: int
    n_interior: int


class P1Evaluator:
    """Point evaluation of a P1 finite-element field.

    A triangle that holds a point has its barycenter within ``reach`` of it:
    the mesh's largest barycenter-to-vertex distance, inflated by
    1 + 4 LOCATE_TOL, since a point whose barycentric coordinates are all
    >= -LOCATE_TOL lies in its triangle dilated by 1 + 3 LOCATE_TOL about the
    barycenter.  So one ball query on the barycenters yields every candidate,
    and each point takes the candidate whose smallest barycentric coordinate
    is largest.  A point with no candidate, or whose best coordinate is
    <= -LOCATE_TOL, lies outside the mesh.  Each call indexes only the
    barycenters in the box about its points widened by ``reach``.
    """

    def __init__(self, fs: FemSolution):
        self.mesh = fs.mesh
        self.values = fs.values
        x, y = fs.mesh.vertex_columns()
        bary = fs.mesh.barycenters
        far = float(np.hypot(x - bary[:, 0], y - bary[:, 1]).max())
        self.reach = far * (1.0 + 4.0 * LOCATE_TOL)
        corner = np.argmin(np.hypot(self.mesh.vertices[:, 0], self.mesh.vertices[:, 1]))
        self.corner_value = float(self.values[corner])

    def __call__(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        pts = np.column_stack([x, y])
        mesh = self.mesh
        bary = mesh.barycenters
        box = (bary >= pts.min(axis=0) - self.reach) & (bary <= pts.max(axis=0) + self.reach)
        near = np.flatnonzero(box.all(axis=1))
        # a multi-point query lists each point's indices sorted, and near is
        # ascending, so the candidates come in the order of a tree over all barycenters
        cands = cKDTree(bary[near]).query_ball_point(pts, self.reach)
        counts = np.array([len(c) for c in cands], dtype=np.intp)
        if not counts.all():
            raise FitError(f"query point {pts[np.argmin(counts)].tolist()} lies outside the mesh")
        t = near[np.concatenate(cands).astype(np.intp)]
        q = np.repeat(np.arange(pts.shape[0]), counts)
        # lambda_i(p) = 1/3 + grad(lambda_i) . (p - barycenter)
        lam = 1.0 / 3.0 + np.einsum("nij,nj->ni", mesh.basis_gradients[t], pts[q] - mesh.barycenters[t])
        worst = lam.min(axis=1)
        best = np.lexsort((-worst, q))[np.cumsum(counts) - counts]  # first of each point's group
        outside = worst[best] <= -LOCATE_TOL
        if outside.any():
            raise FitError(f"query point {pts[np.argmax(outside)].tolist()} lies outside the mesh")
        lam = np.clip(lam[best], 0.0, 1.0)
        lam /= lam.sum(axis=1, keepdims=True)
        return np.einsum("ni,ni->n", self.values[mesh.triangles[t[best]]], lam)


def _field_evaluator(field):
    """Point evaluator of ``field`` and its value at the corner."""
    if isinstance(field, FemSolution):
        ev = P1Evaluator(field)
        return ev, ev.corner_value
    if callable(field):
        def ev(x, y):
            return np.asarray(field(np.atleast_1d(x), np.atleast_1d(y)), dtype=float)

        return ev, float(ev(np.array([0.0]), np.array([0.0]))[0])
    raise TypeError("field must be a FemSolution or a callable")


def default_fit_radii(h: float, radius: float, count: int = 9) -> np.ndarray:
    """Geometric radii between 4h (FEM pollution floor) and R/4.

    Raises ``FitError`` when that window is empty or is one that
    ``fit_corner_exponent`` rejects, so no solve is spent on it.
    """
    lo, hi = 4.0 * h, radius / 4.0
    if not lo < hi:
        raise FitError(f"no admissible fit window: 4h = {lo:.3g} >= R/4 = {hi:.3g}")
    radii = np.geomspace(lo, hi, count)
    _check_fit_radii(radii)
    return radii


def _check_fit_radii(radii: np.ndarray) -> None:
    """At least 4 sorted radii, finite and positive, spanning a decade, else ``FitError``."""
    if radii.size < 4:
        raise FitError(f"need at least 4 radii, got {radii.size}")
    if not (np.isfinite(radii) & (radii > 0.0)).all():
        raise FitError(f"radii must be finite and positive, got {radii.tolist()}")
    if radii[-1] < 10.0 * radii[0]:
        raise FitError(
            f"radii must span at least one decade, got {radii[-1] / radii[0]:.3g}x"
        )


def default_rays(wedge, n: int = 32) -> np.ndarray:
    """Interior ray angles, inset from the walls by RAY_INSET of the opening."""
    lo = wedge.theta_minus + RAY_INSET * wedge.opening
    hi = wedge.theta_plus - RAY_INSET * wedge.opening
    return np.linspace(lo, hi, n)


def fit_corner_exponent(field, rays, radii) -> ExponentFit:
    """Least-squares slope of log sup_theta |u(r, theta) - u(corner)| vs log r.

    Requires at least 4 radii spanning a decade; a field with no variation
    over the window is an error, not an exponent.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    rays = np.asarray(list(rays), dtype=float)
    _check_fit_radii(radii)
    if rays.size < 1:
        raise FitError("need at least one ray")
    ev, u0 = _field_evaluator(field)

    rr, tt = np.meshgrid(radii, rays, indexing="ij")
    vals = ev((rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()).reshape(rr.shape)
    dev = np.abs(vals - u0)
    sup = dev.max(axis=1)
    if np.any(sup <= 0.0):
        raise FitError("zero variation at some radius: exponent undefined")

    logr = np.log(radii)
    logs = np.log(sup)
    slope, intercept = np.polyfit(logr, logs, 1)
    pred = slope * logr + intercept
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0

    per_ray: dict[float, float] = {}
    for j, th in enumerate(rays):
        col = dev[:, j]
        if np.all(col > 0.0):
            s, _ = np.polyfit(logr, np.log(col), 1)
            per_ray[float(th)] = float(s)
    return ExponentFit(
        beta=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
        per_ray=per_ray,
        sup_values=sup,
        radii=radii,
    )


def interface_flux_jump(
    fs: FemSolution,
    coeff,
    weighting: str = "conormal",
) -> FluxJumpReport:
    """Max and mean of |a+ grad(u+) . n - a- grad(u-) . n| over interface edges.

    Each interface edge is paired with its two adjacent elements; n is the
    interface normal (0, 1).  The mean is weighted by edge length, i.e. it
    is the arclength average of the jump along the interface (a plain pair
    average would be dominated by the short corner edges of graded meshes).
    ``weighting="minus-both"`` applies the lower branch on both sides, a
    deliberate mispairing used as a negative control; any other weighting
    is a ValueError.
    """
    if weighting not in ("conormal", "minus-both"):
        raise ValueError(f"unknown weighting {weighting!r}: expected 'conormal' or 'minus-both'")
    mesh = fs.mesh
    pairs, t_up, t_dn = interface_edges(mesh)
    if t_up.size == 0:
        return FluxJumpReport(0.0, 0.0, 0)

    normal = np.array([0.0, 1.0])
    bary = mesh.barycenters
    side_up = -1 if weighting == "minus-both" else 1
    a_up = coeff.evaluate(bary[t_up, 0], bary[t_up, 1], np.full(t_up.size, side_up))
    a_dn = coeff.evaluate(bary[t_dn, 0], bary[t_dn, 1], np.full(t_dn.size, -1))
    grads = fs.element_gradients
    flux_up = np.einsum("nij,nj->ni", a_up, grads[t_up]) @ normal
    flux_dn = np.einsum("nij,nj->ni", a_dn, grads[t_dn]) @ normal
    jumps = np.abs(flux_up - flux_dn)
    u, v = pairs.T
    lengths = np.linalg.norm(mesh.vertices[u] - mesh.vertices[v], axis=1)
    return FluxJumpReport(
        float(jumps.max()), float((jumps * lengths).sum() / lengths.sum()), jumps.size
    )


def _sides(cloud: SampledField) -> list[SampledField]:
    """The sides (upper, then lower) of ``cloud`` with at least 2 samples."""
    masks = (cloud.regions == 1, cloud.regions == -1)
    return [cloud.restrict(m) for m in masks if np.count_nonzero(m) >= 2]


def _solution_sides(fs: FemSolution) -> list[SampledField]:
    """``_sides`` of the solution cloud, once per solve, each side carrying its pair index.

    The global lhs and ``_g_norm`` scan the same side points, so they walk
    one index; it lives in the solve's memo and dies with the solve.
    """
    if "sides" not in fs._memo:
        fs._memo["sides"] = [with_pair_index(side) for side in _sides(solution_field(fs))]
    return fs._memo["sides"]


def _side_max(sides: list[SampledField], norm) -> float:
    """Largest ``norm`` over ``sides``, 0 if there are none."""
    best = 0.0
    for side in sides:
        best = max(best, norm(side))
    return best


def _ratio(kind, desc, lhs, spec, cloud, sup_u, trace_norms, g_norm) -> EstimateRatio:
    """``lhs`` against the data right-hand side measured on the samples of ``cloud``.

    The right-hand side sums, in this order: sup_u, the largest of
    ``trace_norms``, sup|h| over ``cloud``, and ``g_norm`` (see ``_g_norm``).
    At or below DEGENERATE_RHS the ratio is degenerate.
    """
    sup_h = float(np.abs(spec.h_at(cloud.points[:, 0], cloud.points[:, 1])).max())
    rhs = sup_u + max(trace_norms, default=0.0) + sup_h + g_norm
    status = "degenerate" if rhs <= DEGENERATE_RHS else "ok"
    return EstimateRatio(lhs, rhs, kind, desc, status=status)


def _g_norm(spec: ProblemSpec, alpha: float, sides: list[SampledField]) -> float:
    """Largest Holder norm of a component of g over the samples of one of ``sides``, 0 if none.

    Both components of a side come from one pair scan.
    """
    best = 0.0
    for side in sides:
        gvals = spec.g_at(side.points[:, 0], side.points[:, 1], side.regions)
        best = max(best, *plain_column_norms(side, gvals, alpha))
    return best


def _per_solve(fs: FemSolution, spec: ProblemSpec, alpha: float, term, *args):
    """``term(spec, alpha, *args)``, once per solve, spec object and alpha; ``args`` may not vary."""
    key = (term.__name__, spec, alpha)
    if key not in fs._memo:
        fs._memo[key] = term(spec, alpha, *args)
    return fs._memo[key]


def _trace_norm(spec: ProblemSpec, alpha: float, x, y, s) -> float:
    """Holder norm of phi at boundary points, with its tangential derivative over the arclength ``s``."""
    vals = spec.phi_at(x, y)
    dtang = np.gradient(vals, s)
    grads = np.column_stack([dtang, np.zeros_like(dtang)])
    return plain_norm(SampledField(np.column_stack([x, y]), vals, grads, None), k=1, alpha=alpha)


def _wall_norms(spec: ProblemSpec, alpha: float) -> list[float]:
    R = spec.domain.radius
    r = np.linspace(R / WALL_SAMPLES, R, WALL_SAMPLES)
    w = spec.domain.wedge
    walls = (w.theta_plus, w.theta_minus)
    return [_trace_norm(spec, alpha, r * math.cos(t), r * math.sin(t), r) for t in walls]


def _arc_norms(spec: ProblemSpec, alpha: float) -> list[float]:
    R = spec.domain.radius
    w = spec.domain.wedge
    out = []
    for lo, hi in ((0.0, w.theta_plus), (w.theta_minus, 0.0)):
        th = np.linspace(lo + 1e-9, hi - 1e-9, ARC_SAMPLES)
        out.append(_trace_norm(spec, alpha, R * np.cos(th), R * np.sin(th), R * th))
    return out


def estimate_ratio_interior(
    fs: FemSolution,
    spec: ProblemSpec,
    center: tuple[float, float],
    r_inner: float,
    alpha: float,
    pair_budget: int | None = None,
) -> EstimateRatio:
    """Measured interior-estimate ratio on the ball pair B(c, r) in B(c, 2r).

    lhs: max over sides of the unweighted ||u||_{1,alpha} estimate on the
    inner ball; rhs: sup|u| on the outer ball + sup|h| + the per-component
    Holder norms of g.  The solve must cover the outer ball.  ``pair_budget``
    is ignored: every pair scan is exact.
    """
    fld = solution_field(fs)
    d = np.hypot(fld.points[:, 0] - center[0], fld.points[:, 1] - center[1])
    inner = fld.restrict(d <= r_inner)
    outer = fld.restrict(d <= 2.0 * r_inner)
    if inner.n < 4 or outer.n < 4:
        raise FitError("too few samples in the ball pair; refine the mesh")
    lhs = _side_max(_sides(inner), lambda f: plain_norm(f, k=1, alpha=alpha))
    desc = f"interior ball r={r_inner:.3g} at ({center[0]:.3g},{center[1]:.3g})"
    sup_u = float(np.abs(outer.values).max())
    return _ratio("interior", desc, lhs, spec, outer, sup_u, [], _g_norm(spec, alpha, _sides(outer)))


def estimate_ratio_corner(
    fs: FemSolution,
    spec: ProblemSpec,
    beta: float,
    alpha: float,
    pair_budget: int | None = None,
) -> EstimateRatio:
    """Measured corner-estimate ratio on nested sectors W_(fR) in W_R, f = CORNER_INNER_FRACTION.

    lhs: max over sides of the edge-weighted ||u||_{1,alpha} with weight
    exponent tau = -beta on the inner sector; rhs: sup|u| + the wall trace
    norms of phi + sup|h| + the Holder norms of g over the full sector.
    ``pair_budget`` is ignored: every pair scan is exact.
    """
    fld = solution_field(fs)
    rho = np.hypot(fld.points[:, 0], fld.points[:, 1])
    inner = fld.restrict(rho <= CORNER_INNER_FRACTION * spec.domain.radius)
    if inner.n < 4:
        raise FitError("too few samples in the inner sector; refine the mesh")
    params = NormParams(k=1, alpha=alpha, tau=-beta)
    lhs = _side_max(_sides(inner), lambda f: weighted_norm(f, params).total)
    desc = f"corner sectors {CORNER_INNER_FRACTION:.2g}R in R, beta={beta:.3g}"
    sup_u = float(np.abs(fld.values).max())
    walls = _per_solve(fs, spec, alpha, _wall_norms)
    g_norm = _per_solve(fs, spec, alpha, _g_norm, _solution_sides(fs))
    return _ratio("corner", desc, lhs, spec, fld, sup_u, walls, g_norm)


def estimate_ratio_global(
    fs: FemSolution,
    spec: ProblemSpec,
    beta: float,
    alpha: float,
    pair_budget: int | None = None,
) -> EstimateRatio:
    """Global-estimate ratio: weighted norm over the whole sector against
    the data-only aggregate (trace, h, and g norms; no solution term).
    ``pair_budget`` is ignored: every pair scan is exact."""
    fld = solution_field(fs)
    params = NormParams(k=1, alpha=alpha, tau=-beta)
    sides = _solution_sides(fs)
    lhs = _side_max(sides, lambda f: weighted_norm(f, params).total)
    traces = _per_solve(fs, spec, alpha, _wall_norms) + _per_solve(fs, spec, alpha, _arc_norms)
    g_norm = _per_solve(fs, spec, alpha, _g_norm, sides)
    return _ratio("global", "full sector", lhs, spec, fld, 0.0, traces, g_norm)


def calibrate_barrier(
    v,
    alpha: float,
    tau0: float,
    wedge,
    boundary_points: np.ndarray,
) -> Barrier:
    """Barrier whose amplitude is the max of |v| / w_unit over boundary samples."""
    unit = Barrier(amplitude=1.0, alpha=alpha, tau0=tau0, wedge=wedge)
    pts = np.asarray(boundary_points, dtype=float)
    w_unit = barrier_eval_xy(unit, pts[:, 0], pts[:, 1])
    if np.any(w_unit <= 0.0):
        raise BoundaryHypothesisError("unit barrier vanishes at a boundary sample")
    ratio = np.abs(np.asarray(v(pts[:, 0], pts[:, 1]), dtype=float)) / w_unit
    amp = max(float(ratio.max()), 1e-300)
    return Barrier(amplitude=amp, alpha=alpha, tau0=tau0, wedge=wedge)


def comparison_check(
    v,
    barrier: Barrier,
    boundary_points: np.ndarray,
    interior_points: np.ndarray,
) -> ComparisonReport:
    """Verify |v| <= w on the boundary, then check it on interior samples.

    A boundary violation raises ``BoundaryHypothesisError`` (the interior
    conclusion would be vacuous); the interior check passes when
    |v| <= w * (1 + INTERIOR_SLACK) everywhere, and the worst ratios are
    reported either way.
    """
    bpts = np.asarray(boundary_points, dtype=float)
    ipts = np.asarray(interior_points, dtype=float)
    wb = barrier_eval_xy(barrier, bpts[:, 0], bpts[:, 1])
    vb = np.abs(np.asarray(v(bpts[:, 0], bpts[:, 1]), dtype=float))
    if np.any(wb <= 0.0):
        raise BoundaryHypothesisError("barrier not positive at a boundary sample")
    rb = vb / wb
    worst_b = float(rb.max())
    if worst_b > 1.0 + BOUNDARY_SLACK:
        raise BoundaryHypothesisError(
            f"|v| <= w fails on the boundary: worst ratio {worst_b:.6g}"
        )
    wi = barrier_eval_xy(barrier, ipts[:, 0], ipts[:, 1])
    vi = np.abs(np.asarray(v(ipts[:, 0], ipts[:, 1]), dtype=float))
    if np.any(wi <= 0.0):
        raise BoundaryHypothesisError("barrier not positive at an interior sample")
    ri = vi / wi
    worst_i = float(ri.max())
    return ComparisonReport(
        passed=bool(worst_i <= 1.0 + INTERIOR_SLACK),
        worst_boundary_ratio=worst_b,
        worst_interior_ratio=worst_i,
        n_boundary=bpts.shape[0],
        n_interior=ipts.shape[0],
    )
