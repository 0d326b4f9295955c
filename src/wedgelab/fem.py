"""Interface-fitted P1 finite elements for  div(a grad u) = h + div g.

The weak form against test functions vanishing on the boundary is

    integral a grad(u) . grad(v) dx = - integral h v dx + integral g . grad(v) dx,

discretized with conforming linear elements.  The coefficient is sampled at
element barycenters, so on an interface-fitted mesh each element sees only
its own side of the jump; loads use 3-point edge-midpoint quadrature.
Dirichlet data is imposed by node elimination (known columns moved to the
right-hand side), which keeps the reduced system symmetric positive
definite for the preconditioned conjugate-gradient solve.  The solve runs
on all vertices with the Dirichlet ones held at 0, so the reduced matrix is
read in place from the assembled one, never copied.  Its preconditioner
follows the mesh and the parents it records (``Mesh.parent``), holding each
level's boundary vertices at 0: ``_preconditioner`` states the rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpttrf, dpttrs

from .geometry import DomainSpec, Mesh, generate_mesh
from .norms import SampledField

DEGENERATE_AREA = 1e-14
ELLIPTICITY_SLACK = 1e-10
# The V-cycle coarsens until a level has at most this many unknowns and
# factors that level densely (``_preconditioner`` states the rule).
COARSE_UNKNOWNS = 200
# Damping of each multigrid level's smoother.
SMOOTHER_DAMPING = 0.8
# error_report evaluates the reference functions on this many elements'
# midpoints at a time (and as many vertices), so its temporaries stay small
# on fine meshes; chunks of 16k-64k points evaluated fastest.
QUADRATURE_BLOCK = 1 << 14


class AssemblyError(ValueError):
    """Mesh or data unusable for assembly."""


class EllipticityError(ValueError):
    """Sampled coefficient violates the prescribed ellipticity bounds."""


class SolverError(RuntimeError):
    """Conjugate-gradient iteration failed (non-convergence or indefiniteness)."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


def _as_field(f, shape: tuple):
    """Wrap ``f`` into (x, y) -> values of shape x.shape + ``shape``.

    ``shape`` is (), (2,) or (2, 2).  ``None`` gives zeros, a constant of
    ``shape`` is broadcast, a callable is wrapped.  For (2, 2) a scalar
    constant, or a callable returning one value per point, is isotropic.
    A constant's function carries it as ``value``.
    """
    if callable(f):

        def fn(x, y):
            out = np.asarray(f(x, y), dtype=float)
            if shape == (2, 2) and out.shape == np.shape(x):
                return out[..., None, None] * np.eye(2)
            return out

        return fn
    val = np.zeros(shape) if f is None else np.asarray(f, dtype=float)
    if shape == (2, 2) and val.ndim == 0:
        val = val * np.eye(2)
    if val.shape != shape:
        raise AssemblyError(f"constant data of shape {val.shape} where {shape} is expected")

    def const_fn(x, y):
        return np.broadcast_to(val, np.shape(x) + shape)

    const_fn.value = val
    return const_fn


def _by_side(fn_plus, fn_minus, x, y, side, shape: tuple) -> np.ndarray:
    """``fn_plus`` at points with side > 0, ``fn_minus`` elsewhere.

    A constant branch (``_as_field``'s ``value``) is looked up by side, and
    its points' coordinates are not gathered; a callable one is called on
    its own points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    up = np.broadcast_to(np.asarray(side), x.shape) > 0
    table = np.zeros((2,) + shape)  # row 1 is the upper side's
    for row, fn in enumerate((fn_minus, fn_plus)):
        if hasattr(fn, "value"):
            table[row] = fn.value
    out = np.take(table, up.view(np.int8), axis=0)
    for fn, on in ((fn_plus, up), (fn_minus, ~up)):
        if not hasattr(fn, "value") and np.any(on):
            out[on] = fn(x[on], y[on])
    return out


@dataclass
class PiecewiseCoefficient:
    """Symmetric 2x2 coefficient field, one branch per side of theta = 0."""

    a_plus: object
    a_minus: object
    lam: float = 0.0
    Lam: float = math.inf

    def __post_init__(self):
        self._fn_plus = _as_field(self.a_plus, (2, 2))
        self._fn_minus = _as_field(self.a_minus, (2, 2))

    def evaluate(self, x, y, side):
        """Coefficient matrices at points, side = +1/-1 per point."""
        return _by_side(self._fn_plus, self._fn_minus, x, y, side, (2, 2))


def coefficient_jump(a0: float, lam: float | None = None, Lam: float | None = None) -> PiecewiseCoefficient:
    """Piecewise-constant isotropic coefficient: a0 above the interface, 1 below.

    Given bounds ``lam``/``Lam`` are checked against both values here.
    """
    if not 0.0 < a0 < math.inf:
        raise EllipticityError(f"jump value must be positive and finite, got {a0}")
    coeff = PiecewiseCoefficient(
        a_plus=a0,
        a_minus=1.0,
        lam=min(a0, 1.0) if lam is None else lam,
        Lam=max(a0, 1.0) if Lam is None else Lam,
    )
    validate_ellipticity(coeff, np.multiply.outer([a0, 1.0], np.eye(2)))
    return coeff


def validate_ellipticity(coeff: PiecewiseCoefficient, mats: np.ndarray) -> None:
    """Check lam |xi|^2 <= xi . a xi <= Lam |xi|^2 for every direction xi and
    each of the (m, 2, 2) matrices ``mats`` sampled from ``coeff``.

    The entries must be finite, the off-diagonals must agree to
    1e-12 max(1, |a|, |c|) for the diagonal a, c, and the closed-form
    eigenvalues (a + c)/2 -+ hypot((a - c)/2, b) of each symmetric matrix must
    lie in [lam, Lam]; both bounds allow ELLIPTICITY_SLACK for rounding.
    """
    if not np.isfinite(mats).all():
        raise EllipticityError("coefficient matrices must be finite (a sample is NaN or infinite)")
    a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
    scale = np.maximum(np.maximum(np.abs(a), np.abs(c)), 1.0)
    if np.any(np.abs(b - mats[..., 1, 0]) > 1e-12 * scale):
        raise EllipticityError("coefficient matrices must be symmetric")
    mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    if coeff.lam > 0.0 and np.any(mid - rad < coeff.lam - ELLIPTICITY_SLACK):
        raise EllipticityError(
            f"coefficient dips below lambda = {coeff.lam}: min eigenvalue {(mid - rad).min():.6g}"
        )
    if math.isfinite(coeff.Lam) and np.any(mid + rad > coeff.Lam + ELLIPTICITY_SLACK):
        raise EllipticityError(
            f"coefficient exceeds Lambda = {coeff.Lam}: max eigenvalue {(mid + rad).max():.6g}"
        )


def _validate_samples(coeff: PiecewiseCoefficient, mats: np.ndarray, side: np.ndarray) -> None:
    """``validate_ellipticity`` of ``mats = coeff.evaluate(x, y, side)``.

    When both branches are constant, ``mats`` holds only copies of them, so
    each is checked once instead, if a point uses it: the same verdict and
    message.
    """
    branches = ((coeff._fn_plus, np.any(side > 0)), (coeff._fn_minus, np.any(side <= 0)))
    if all(hasattr(fn, "value") for fn, _ in branches):
        mats = np.array([fn.value for fn, used in branches if used]).reshape(-1, 2, 2)
    validate_ellipticity(coeff, mats)


@dataclass(eq=False)
class ProblemSpec:
    """Dirichlet problem data on a sector domain; equal and hashed by identity.

    ``g_plus``/``g_minus`` are the vector field branches per side, ``h`` the
    scalar right-hand side, ``phi`` the boundary data (continuous on the
    closed boundary).
    """

    domain: DomainSpec
    coeff: PiecewiseCoefficient
    phi: object
    g_plus: object = None
    g_minus: object = None
    h: object = None

    def __post_init__(self):
        self._phi = _as_field(self.phi, ())
        self._g_plus = _as_field(self.g_plus, (2,))
        self._g_minus = _as_field(self.g_minus, (2,))
        self._h = _as_field(self.h, ())

    def phi_at(self, x, y):
        return self._phi(x, y)

    def h_at(self, x, y):
        return self._h(x, y)

    def g_at(self, x, y, side):
        return _by_side(self._g_plus, self._g_minus, x, y, side, (2,))


@dataclass
class SparseSystem:
    """Assembled symmetric system with Dirichlet constraints attached."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    constrained: np.ndarray  # distinct vertex indices
    values: np.ndarray  # prescribed values at constrained vertices
    mesh: Mesh | None = None  # the mesh assembled on, which the preconditioner follows

    @property
    def n(self) -> int:
        return self.rhs.shape[0]

    @property
    def n_free(self) -> int:
        return self.n - self.constrained.shape[0]


@dataclass
class CgDiagnostics:
    iterations: int
    final_residual: float
    history: np.ndarray
    n_unknowns: int
    converged: bool
    preconditioner: str = "jacobi"  # "multigrid" (V-cycle), "line" (tridiagonal part) or "jacobi"
    levels: int = 1  # mesh levels of the preconditioner
    true_residual: float = math.nan  # ||b_f - A_ff x|| / ||b_f||, from one matvec after the loop
    setup_s: float = math.nan  # seconds spent building the preconditioner; NaN when none is built


@dataclass
class FemSolution:
    mesh: Mesh
    values: np.ndarray  # (nv,)
    element_gradients: np.ndarray  # (nt, 2)
    diagnostics: CgDiagnostics
    # what this solve's diagnostics compute once: the solution cloud, data-side norms
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def assemble(mesh: Mesh, spec: ProblemSpec) -> SparseSystem:
    """Element-wise stiffness and load assembly.

    The coefficient and the vector load g use the element's own side of the
    interface (no cross-interface averaging); h and g are integrated with
    3-point edge-midpoint quadrature, exact for quadratics.
    """
    areas = mesh.areas
    if np.any(areas <= DEGENERATE_AREA):
        raise AssemblyError(
            f"degenerate element: min area {areas.min():.3g} <= {DEGENERATE_AREA}"
        )
    # one helper each, so the stiffness and the load temporaries are never alive together
    matrix = _stiffness(mesh, spec.coeff)
    rhs = _load(mesh, spec)
    constrained = np.flatnonzero(mesh.boundary)
    values = spec.phi_at(mesh.vertices[constrained, 0], mesh.vertices[constrained, 1])
    return SparseSystem(matrix=matrix, rhs=rhs, constrained=constrained, values=values, mesh=mesh)


def _stiffness(mesh: Mesh, coeff: PiecewiseCoefficient) -> sp.csr_matrix:
    """The sum of the element matrices, built from their diagonals and strictly upper entries.

    Entry (i, j) of an element is area g_i . (A g_j), formed from the columns
    of the coefficients A and the basis gradients g, and only for the six
    entries stored: the diagonal and the local edges 01, 12, 20.  Entry (i, j)
    lands on its edge's (min, max) vertex pair, so the strictly upper part U
    sums the two triangles of each interior edge in a COO matrix of 3 nt
    entries; each CSR row is then U^T's row, the diagonal, and U's row.  The
    pattern is that of all nine entries per element summed, explicit zeros
    included, and the matrix is exactly symmetric.
    """
    bary = mesh.barycenters
    amat = coeff.evaluate(bary[:, 0], bary[:, 1], mesh.region)
    _validate_samples(coeff, amat, mesh.region)
    grads, areas = mesh.basis_gradients, mesh.areas
    n = mesh.n_vertices
    tri = mesh.triangles.astype(np.int32)
    diag = np.zeros(n)
    upper_vals = np.empty((3, mesh.n_triangles))  # rows: the local edges 01, 12, 20
    for j in range(3):
        gx, gy = grads[:, j, 0], grads[:, j, 1]
        ax = amat[:, 0, 0] * gx + amat[:, 0, 1] * gy  # A g_j, scaled by the area
        ax *= areas
        ay = amat[:, 1, 0] * gx + amat[:, 1, 1] * gy
        ay *= areas
        diag += np.bincount(tri[:, j], gx * ax + gy * ay, n)
        i = (j + 2) % 3  # the edge (i, j) is row i of upper_vals
        np.add(grads[:, i, 0] * ax, grads[:, i, 1] * ay, out=upper_vals[i])
    del amat, ax, ay  # freed before the sparse steps
    a, b = tri.T, tri.T[[1, 2, 0]]
    upper = sp.coo_matrix(
        (upper_vals.ravel(), (np.minimum(a, b).ravel(), np.maximum(a, b).ravel())), shape=(n, n)
    ).tocsr()
    del upper_vals, a, b, tri
    lower = upper.tocsc()  # its arrays are U^T's in CSR, column indices sorted
    n_lower, n_upper = np.diff(lower.indptr), np.diff(upper.indptr)
    indptr = np.zeros(n + 1, dtype=upper.indptr.dtype)
    np.cumsum(n_lower + n_upper + 1, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=upper.indices.dtype)
    data = np.empty(indptr[-1])
    at_diag = indptr[:-1] + n_lower
    indices[at_diag] = np.arange(n)
    data[at_diag] = diag
    for part, start in ((lower, indptr[:-1]), (upper, at_diag + 1)):
        # the k-th entry of the part's row r goes to start[r] + k
        at = np.arange(part.nnz, dtype=indptr.dtype)
        at += np.repeat(start - part.indptr[:-1], np.diff(part.indptr))
        indices[at] = part.indices
        data[at] = part.data
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _load(mesh: Mesh, spec: ProblemSpec) -> np.ndarray:
    """Load vector; the h term is skipped when ``spec.h`` is None, the g term when both g branches are."""
    rhs = np.zeros(mesh.n_vertices)
    has_g = spec.g_plus is not None or spec.g_minus is not None
    if spec.h is None and not has_g:
        return rhs
    mx, my = _edge_midpoints(mesh.vertices, mesh.triangles)
    areas = mesh.areas[:, None]
    terms = []
    if spec.h is not None:
        hx = spec.h_at(mx, my)  # (m, 3)
        # basis i is 1/2 on its two adjacent midpoints: vertex 0 touches 01 and 20
        # (indices 0 and 2), etc.
        adj = np.array([[0, 2], [1, 0], [2, 1]])
        terms.append(-(areas / 3.0) * 0.5 * (hx[:, adj[:, 0]] + hx[:, adj[:, 1]]))
    if has_g:
        gx = spec.g_at(mx.ravel(), my.ravel(), np.repeat(mesh.region, 3)).reshape(*mx.shape, 2)
        gbar = (gx[:, 0] + gx[:, 1] + gx[:, 2]) / 3  # (m, 2), the mean over the midpoints
        terms.append(areas * np.einsum("mid,md->mi", mesh.basis_gradients, gbar))
    np.add.at(rhs, mesh.triangles.ravel(), sum(terms).ravel())
    return rhs


def _edge_midpoints(vertices: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y, each (m, 3), of the midpoints of the edges 01, 12, 20 of each of the (m, 3) ``triangles``."""
    tri = triangles.T
    columns = (vertices[:, 0][tri], vertices[:, 1][tri])  # as Mesh.vertex_columns, for these elements
    return tuple(np.ascontiguousarray(((c + c[[1, 2, 0]]) * 0.5).T) for c in columns)


def solve_cg(
    system: SparseSystem,
    tol: float = 1e-10,
    max_iter: int | None = None,
    callback=None,
) -> tuple[np.ndarray, CgDiagnostics]:
    """Preconditioned conjugate gradients on the constrained system.

    Iterates on all vertices with the constrained ones held at 0, so CG runs
    on the free unknowns' block of the assembled matrix, read in place: the
    right-hand side is b = rhs - A lift with its constrained entries set to
    0, where ``lift`` holds the prescribed values at the constrained vertices
    and 0 elsewhere, and each product A p has its constrained entries set to
    0.  The solution, and each iterate passed to ``callback``, carries the
    prescribed values.  Iterates until the relative residual drops below
    ``tol``, and records the residual history.  The preconditioner follows
    ``system.mesh`` (``_preconditioner`` states the rule); ``CgDiagnostics``
    names it and its levels, gives the seconds spent building it and the true
    relative residual, and a zero right-hand side returns at once, builds no
    preconditioner and reads "jacobi".  Raises
    ``ValueError`` for a ``tol`` outside (0, 1), a ``max_iter`` below 1 or
    constrained vertices that are not distinct indices in [0, n), and
    ``SolverError`` for a matrix or right-hand side that is not finite, on
    stagnation past ``max_iter`` (default 20 sqrt of the free unknowns) or on
    loss of positive definiteness.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError(f"relative tolerance must lie in (0, 1), got {tol}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"iteration limit must be at least 1, got {max_iter}")
    A, pinned, n = system.matrix, system.constrained, system.n
    order = np.sort(pinned)
    if order.dtype.kind not in "iu" or order.size and (order[0] < 0 or order[-1] >= n or np.any(order[1:] == order[:-1])):
        raise ValueError(f"constrained vertices must be distinct indices in [0, {n})")
    if not np.isfinite(A.data).all():
        raise SolverError("the matrix is not finite (an entry is NaN or infinite)")
    lift = np.zeros(n)
    lift[pinned] = system.values
    b = system.rhs - A @ lift
    del lift
    b[pinned] = 0.0

    m = system.n_free
    if max_iter is None:
        max_iter = max(64, int(20.0 * math.sqrt(max(m, 1))))

    bnorm = float(np.linalg.norm(b))
    history: list[float] = []
    if not math.isfinite(bnorm):
        raise SolverError(f"the load or boundary data is not finite (right-hand side norm {bnorm})")
    if bnorm == 0.0:
        x = np.zeros(n)
        x[pinned] = system.values
        return x, CgDiagnostics(0, 0.0, np.zeros(0), m, True, true_residual=0.0)

    start = time.perf_counter()
    kind, levels, precond = _preconditioner(A, system.mesh, pinned)
    setup_s = time.perf_counter() - start

    x = np.zeros(n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        Ap = A @ p
        Ap[pinned] = 0.0
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise SolverError(
                f"direction of nonpositive curvature at iteration {it}", history
            )
        step = rz / pAp
        x += step * p
        r -= step * Ap
        res = float(np.linalg.norm(r)) / bnorm
        history.append(res)
        if callback is not None:
            u = x.copy()
            u[pinned] = system.values
            callback(u)
        if res <= tol:
            converged = True
            break
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if not converged:
        raise SolverError(
            f"CG did not reach tol {tol} in {max_iter} iterations "
            f"(residual {history[-1]:.3g})",
            history,
        )
    r = b - A @ x
    r[pinned] = 0.0
    true_res = float(np.linalg.norm(r)) / bnorm
    diagn = CgDiagnostics(
        it, history[-1], np.asarray(history), m, True, kind, len(levels) + 1, true_res, setup_s
    )
    x[pinned] = system.values
    return x, diagn


def _preconditioner(A: sp.csr_matrix, mesh: Mesh | None, pinned: np.ndarray):
    """CG's preconditioner for ``A`` on ``mesh``'s vertices, ``pinned`` held at 0: (kind, levels, map).

    The map sends a vector that is 0 at the held vertices to one that is 0
    there; on the free vertices it preconditions the free block of ``A``,
    and a diagonal entry of that block that is not positive raises
    ``SolverError``.  The levels are ``mesh`` and its parents down
    ``Mesh.parent``, while a level has more than ``COARSE_UNKNOWNS`` free
    vertices and its parent a free vertex; a parent holds its boundary
    vertices.  Each step keeps the entries of the recorded prolongation P
    on the finer level's free rows and the parent's free columns (so a
    Dirichlet end gives a zero correction), chosen by one mask over its
    entries, and forms the Galerkin operator ``P^T A P`` as
    ``((A P)^T P)^T``, which is equal for the symmetric A and converts only
    P, not A, to CSC.  A level's own solve (``_level_solve``) is the
    tridiagonal part of its free block, factored once by LAPACK's
    ``dpttrf``, when its mesh is ``Mesh.layered`` (a polar mesh, numbered
    along the circular layers that carry the strong coupling); any other
    level, no mesh, and a band that ``dpttrf`` rejects get the diagonal.
    With one level the map is that solve ("line" or "jacobi").  Otherwise
    it is a symmetric V(1,1) cycle ("multigrid"): each level above the
    coarsest smooths with its own solve damped by ``SMOOTHER_DAMPING``, the
    damping folded into the solve when it is built, and the coarsest is
    factored by dense Cholesky, with 1 on the diagonal at its held vertices,
    when it has at most ``COARSE_UNKNOWNS`` free vertices, else takes its
    own undamped solve.  ``levels`` holds (A, P, P^T, smoother) of each
    level above the coarsest; P^T is a CSC view of P's arrays, so the
    restriction is built once and copies nothing.  The cycle is a loop down
    the levels and back up, so the map holds no reference to itself.
    """
    levels, diag = [], A.diagonal()
    free = np.ones(A.shape[0], dtype=bool)
    free[pinned] = False
    if np.any(diag[free] <= 0.0):
        raise SolverError("reduced matrix has nonpositive diagonal entries")
    line = mesh is not None and mesh.layered
    while mesh is not None and mesh.parent is not None and np.count_nonzero(free) > COARSE_UNKNOWNS:
        mesh, P = mesh.parent
        coarse = ~mesh.boundary
        if not coarse.any():
            break
        keep = np.repeat(free, np.diff(P.indptr)) & coarse[P.indices]
        kept = np.zeros(keep.size + 1, dtype=P.indptr.dtype)  # kept[k]: the entries kept before entry k
        np.cumsum(keep, dtype=kept.dtype, out=kept[1:])
        P = sp.csr_matrix((P.data[keep], P.indices[keep], kept[P.indptr]), shape=P.shape)
        levels.append((A, P, P.T, _level_solve(A, diag, free, SMOOTHER_DAMPING, line)[1]))
        A = ((A @ P).T @ P).T
        diag, free, line = A.diagonal(), coarse, mesh.layered
    if levels and np.count_nonzero(free) <= COARSE_UNKNOWNS:
        factor = cho_factor(A.toarray() + np.diag(~free * 1.0))
        solve = lambda r: cho_solve(factor, r)
    else:
        kind, solve = _level_solve(A, diag, free, 1.0, line)
    if not levels:
        return kind, levels, solve

    def vcycle(r):
        residuals, corrections = [], []
        for A, _, R, smooth in levels:  # down: pre-smooth, restrict the residual
            x = smooth(r)
            residuals.append(r)
            corrections.append(x)
            r = R @ (r - A @ x)
        x = solve(r)
        for (A, P, _, smooth), r, x_fine in zip(levels[::-1], residuals[::-1], corrections[::-1]):
            x = x_fine + P @ x  # up: prolong the correction, post-smooth
            x += smooth(r - A @ x)
        return x

    return "multigrid", levels, vcycle


def _level_solve(A: sp.csr_matrix, diag: np.ndarray, free: np.ndarray, damping: float, line: bool):
    """("line", tridiagonal solve) when ``line`` and ``dpttrf`` accepts the band, else ("jacobi", diagonal).

    Either acts on the block of ``A`` on the ``free`` vertices and returns 0
    at the others: there the band is 1 on the diagonal and 0 off it, and the
    diagonal's inverse is 0.  Either is scaled by ``damping``: the band over
    ``damping`` is factored, and ``damping`` over the diagonal applied.
    """
    if line:
        d, e, info = dpttrf(
            np.where(free, diag, 1.0) / damping, np.where(free[:-1] & free[1:], A.diagonal(1), 0.0) / damping
        )
        if info == 0:
            held = np.flatnonzero(~free)

            def solve(r):
                x = dpttrs(d, e, r)[0]
                x[held] = 0.0
                return x

            return "line", solve
    minv = np.divide(damping, diag, out=np.zeros(diag.size), where=free)
    return "jacobi", lambda r: minv * r


def element_gradients(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    return np.einsum("mid,mi->md", mesh.basis_gradients, values[mesh.triangles])


def solve_on_mesh(
    spec: ProblemSpec,
    mesh: Mesh,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> FemSolution:
    system = assemble(mesh, spec)
    u, diag = solve_cg(system, tol=tol, max_iter=max_iter)
    return FemSolution(
        mesh=mesh,
        values=u,
        element_gradients=element_gradients(mesh, u),
        diagnostics=diag,
    )


def solve_problem(spec: ProblemSpec, h: float, mu: float = 1.0) -> FemSolution:
    """generate_mesh -> assemble -> Dirichlet elimination -> CG -> gradients."""
    return solve_on_mesh(spec, generate_mesh(spec.domain, h, mu))


def solution_field(fs: FemSolution) -> SampledField:
    """Barycenter samples with per-element gradients, tagged by side: one read-only field per solve.

    The points are the mesh's own read-only barycenters, not a copy.
    """
    if "cloud" not in fs._memo:
        u = fs.values[fs.mesh.triangles.T]
        vals = (u[0] + u[1] + u[2]) / 3
        arrays = (fs.mesh.barycenters, vals, fs.element_gradients.copy(), fs.mesh.region.astype(np.int8))
        for a in arrays:
            a.setflags(write=False)
        fs._memo["cloud"] = SampledField(*arrays)
    return fs._memo["cloud"]


@dataclass
class ErrorReport:
    l2: float
    broken_h1: float
    linf: float


def error_report(fs: FemSolution, exact, exact_grad) -> ErrorReport:
    """Quadrature errors against a reference solution.

    ``exact(x, y)`` is evaluated at edge midpoints and vertices (never at
    element interiors, so a corner singularity is touched only at r = 0
    where the value itself is finite); ``exact_grad(x, y, side)`` uses the
    element's side of the interface, making the H1 error a broken norm.
    """
    mesh = fs.mesh
    # each element's midpoint-rule terms, summed once at the end, so the sums
    # do not depend on the block size
    l2_terms, h1_terms = np.empty(mesh.n_triangles), np.empty(mesh.n_triangles)
    maxima = []
    for start in range(0, mesh.n_triangles, QUADRATURE_BLOCK):
        block = slice(start, start + QUADRATURE_BLOCK)
        l2_terms[block], h1_terms[block], top = _quadrature_block(fs, block, exact, exact_grad)
        maxima.append(top)
    for start in range(0, mesh.n_vertices, QUADRATURE_BLOCK):
        block = slice(start, start + QUADRATURE_BLOCK)
        ue_vert = exact(mesh.vertices[block, 0], mesh.vertices[block, 1])
        maxima.append(np.abs(fs.values[block] - ue_vert).max())
    return ErrorReport(
        l2=math.sqrt(float(l2_terms.sum())), broken_h1=math.sqrt(float(h1_terms.sum())), linf=float(np.max(maxima))
    )


def _quadrature_block(fs: FemSolution, block: slice, exact, exact_grad) -> tuple[np.ndarray, np.ndarray, float]:
    """The L2 and H1 midpoint-rule terms of the elements in ``block``, and their largest midpoint error.

    One call per block, so the block's temporaries are freed before the next block's are made.
    """
    mesh = fs.mesh
    areas, tri = mesh.areas[block], mesh.triangles[block]
    # the reference functions see the midpoints element by element, while
    # row i of err (3, b) holds each element's midpoint i
    mx, my = (c.ravel() for c in _edge_midpoints(mesh.vertices, tri))
    u = fs.values[tri.T]
    err = 0.5 * (u + u[[1, 2, 0]])
    del u
    err -= exact(mx, my).reshape(-1, 3).T
    l2 = _midpoint_terms(areas, err**2)
    top = np.abs(err).max()
    del err
    gx, gy = (g.reshape(-1, 3).T for g in exact_grad(mx, my, np.repeat(mesh.region[block], 3)))
    gh = fs.element_gradients[block]
    return l2, _midpoint_terms(areas, (gh[:, 0] - gx) ** 2 + (gh[:, 1] - gy) ** 2), top


def _midpoint_terms(areas: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Each element's edge-midpoint rule of ``sq`` (3, m), whose row i holds midpoint i."""
    return areas / 3.0 * (sq[0] + sq[1] + sq[2])


def fit_rate(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if np.any(errs <= 0.0) or np.any(hs <= 0.0):
        raise ValueError("rates require positive mesh sizes and errors")
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)
