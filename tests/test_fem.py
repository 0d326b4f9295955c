import dataclasses
import gc
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrf
from scipy.sparse.linalg import spsolve

from wedgelab import fem, geometry
from wedgelab.fem import (
    AssemblyError,
    CgDiagnostics,
    EllipticityError,
    FemSolution,
    PiecewiseCoefficient,
    ProblemSpec,
    SolverError,
    SparseSystem,
    assemble,
    coefficient_jump,
    element_gradients,
    error_report,
    fit_rate,
    solution_field,
    solve_cg,
    solve_on_mesh,
    solve_problem,
    validate_ellipticity,
)
from wedgelab.geometry import Mesh, edge_table, generate_mesh, generate_nonobtuse_mesh, refine_regular, sector

PI = math.pi
IDENTITY = PiecewiseCoefficient(1.0, 1.0, lam=1.0, Lam=1.0)


def single_triangle_mesh():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(
        vertices=vertices,
        triangles=np.array([[0, 1, 2]]),
        region=np.array([1], dtype=np.int8),
        boundary=np.ones(3, dtype=bool),
    )


def unit_square_mesh():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Mesh(
        vertices=vertices,
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
        region=np.array([1, 1], dtype=np.int8),
        boundary=np.ones(4, dtype=bool),
    )


class TestBasisGradients:
    def test_partition_of_unity(self):
        mesh = generate_mesh(sector(-PI / 4, PI / 2, 1.0), 0.3)
        assert np.allclose(mesh.basis_gradients.sum(axis=1), 0.0, atol=1e-12)

    def test_finite_difference_check(self):
        # lambda_i varies linearly from 1 at vertex i to 0 on the far edge
        vertices = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.1]])
        tris = np.array([[0, 1, 2]])
        grads = Mesh(vertices, tris, np.array([1], dtype=np.int8), np.ones(3, dtype=bool)).basis_gradients
        for i in range(3):
            for j in range(3):
                # lambda_i(vertex j) = delta_ij reproduced by linear model
                lam = 1.0 / 3.0 + grads[0, i] @ (vertices[j] - vertices.mean(axis=0))
                assert lam == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


class TestAssemble:
    def test_reference_stiffness(self):
        # unit right triangle with identity coefficient:
        # K = 1/2 [[2,-1,-1],[-1,1,0],[-1,0,1]]
        mesh = single_triangle_mesh()
        spec = ProblemSpec(domain=sector(-0.1, PI / 2 + 0.1, 2.0), coeff=IDENTITY, phi=0.0)
        system = assemble(mesh, spec)
        K = system.matrix.toarray()
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
        assert np.allclose(K, expected, atol=1e-14)
        assert np.allclose(K.sum(axis=1), 0.0, atol=1e-14)

    def test_constant_load_quadrature(self):
        # hand quadrature: each triangle contributes -area/3 per vertex
        mesh = unit_square_mesh()
        spec = ProblemSpec(
            domain=sector(-0.1, PI / 2 + 0.1, 2.0), coeff=IDENTITY, phi=0.0, h=1.0
        )
        system = assemble(mesh, spec)
        area = 0.5
        counts = np.array([2, 1, 2, 1], dtype=float)  # triangles touching each vertex
        assert np.allclose(system.rhs, -counts * area / 3.0, atol=1e-14)

    def test_interface_elements_use_own_side(self):
        # difference between jump and identity assemblies concentrates on the
        # upper-side elements: A_jump = A_id + (a0-1) * (upper-element part)
        dom = sector(-PI / 4, PI / 4, 1.0)
        mesh = generate_mesh(dom, 0.4)
        spec_j = ProblemSpec(domain=dom, coeff=coefficient_jump(3.0), phi=0.0)
        spec_i = ProblemSpec(domain=dom, coeff=IDENTITY, phi=0.0)
        A_j = assemble(mesh, spec_j).matrix.toarray()
        A_i = assemble(mesh, spec_i).matrix.toarray()
        areas, grads = mesh.areas, mesh.basis_gradients
        upper = np.zeros_like(A_i)
        for t in np.flatnonzero(mesh.region > 0):
            ke = areas[t] * grads[t] @ grads[t].T
            idx = mesh.triangles[t]
            upper[np.ix_(idx, idx)] += ke
        assert np.allclose(A_j, A_i + 2.0 * upper, atol=1e-12)

    def test_symmetry_exact(self):
        dom = sector(-PI / 3, PI / 2, 1.0)
        mesh = generate_mesh(dom, 0.2, 0.7)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(4.0), phi=0.0, h=1.0)
        A = assemble(mesh, spec).matrix
        assert (A != A.T).nnz == 0

    def test_reduced_ellipticity(self):
        dom = sector(-PI / 4, PI / 2, 1.0)
        mesh = generate_mesh(dom, 0.25)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(2.0), phi=0.0)
        system = assemble(mesh, spec)
        free = np.setdiff1d(np.arange(system.n), system.constrained)
        Aff = system.matrix[free][:, free].toarray()
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.normal(size=free.size)
            assert w @ Aff @ w > 0.0

    def test_degenerate_element_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-18]])
        mesh = Mesh(
            vertices=vertices,
            triangles=np.array([[0, 1, 2]]),
            region=np.array([1], dtype=np.int8),
            boundary=np.ones(3, dtype=bool),
        )
        spec = ProblemSpec(domain=sector(-0.1, 1.0, 3.0), coeff=IDENTITY, phi=0.0)
        with pytest.raises(AssemblyError):
            assemble(mesh, spec)

    def test_ellipticity_validation(self):
        bad = PiecewiseCoefficient(1.0, 1.0, lam=2.0, Lam=3.0)  # claims lam=2
        with pytest.raises(EllipticityError):
            validate_ellipticity(bad, bad.evaluate(np.array([0.1]), np.array([0.1]), np.array([1])))
        asym = PiecewiseCoefficient(
            lambda x, y: np.tile([[1.0, 0.5], [0.0, 1.0]], (np.asarray(x).size, 1, 1)),
            1.0,
            lam=0.1,
            Lam=10.0,
        )
        with pytest.raises(EllipticityError):
            validate_ellipticity(asym, asym.evaluate(np.array([0.1]), np.array([0.1]), np.array([1])))

    def test_symmetry_is_relative_to_the_diagonal(self):
        # the off-diagonals must agree to 1e-12 max(1, |a11|, |a22|), a tolerance set by the
        # diagonal's scale and not by the off-diagonal's own size
        coeff = PiecewiseCoefficient(1.0, 1.0)
        loose = np.array([[[1.0, 0.5], [0.500004, 1.0]]])
        with pytest.raises(EllipticityError, match="symmetric"):
            validate_ellipticity(coeff, loose)
        with pytest.raises(EllipticityError, match="symmetric"):
            validate_ellipticity(coeff, np.array([[[1.0, 0.0], [1e-11, 1.0]]]))
        # rounding-level asymmetry at the scale 1e7 of the diagonal passes
        for eigenvalues in [(1e7, 1e7), (1e7, 3e7)]:
            mat = rotated(eigenvalues, 0.3)
            mat[1, 0] = mat[0, 1] + 4 * np.spacing(1e7)
            validate_ellipticity(coeff, mat[None])

    @pytest.mark.parametrize("a0", [math.inf, math.nan])
    def test_nonfinite_jump_rejected(self, a0):
        # inf * 0 would make the off-diagonals NaN: no warning, and the message names the value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EllipticityError, match="positive and finite"):
                coefficient_jump(a0)

    def test_nonfinite_samples_named(self):
        coeff = PiecewiseCoefficient(lambda x, y: np.where(np.asarray(x) > 0.5, np.nan, 1.0), 1.0)
        mats = coeff.evaluate(np.array([0.1, 0.9]), np.array([0.1, 0.1]), np.array([1, 1]))
        with pytest.raises(EllipticityError, match="finite"):
            validate_ellipticity(coeff, mats)
        spec = ProblemSpec(domain=sector(-PI / 4, 3 * PI / 4), coeff=coeff, phi=0.0)
        with pytest.raises(EllipticityError, match="finite"):
            assemble(generate_mesh(spec.domain, 0.2, 1.0), spec)

    @pytest.mark.parametrize("bounds", [dict(Lam=1.5), dict(lam=1.5), dict(lam=3.0, Lam=4.0)])
    def test_jump_outside_given_bounds_rejected(self, bounds):
        # a0 = 2 above the interface and 1 below must both lie in [lam, Lam]
        with pytest.raises(EllipticityError):
            coefficient_jump(2.0, **bounds)
        coefficient_jump(2.0, lam=0.5, Lam=2.0)


def rotated(eigenvalues, angle):
    """The symmetric matrix with these eigenvalues, the first along ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    mat = rot @ np.diag(eigenvalues) @ rot.T
    mat[1, 0] = mat[0, 1]
    return mat


class TestEllipticityEigenvalues:
    # eigenvector at pi/16, between two directions of an 8-direction fan,
    # whose smallest quadratic form there reads 1.028 for eigenvalue 0.99
    @pytest.mark.parametrize(
        "eigenvalues,bounds",
        [((0.99, 2.0), dict(lam=1.0)), ((2.01, 0.5), dict(lam=0.4, Lam=2.0))],
        ids=["below_lam", "above_Lam"],
    )
    def test_eigenvector_between_fan_directions_rejected(self, eigenvalues, bounds):
        coeff = PiecewiseCoefficient(1.0, 1.0, **bounds)
        with pytest.raises(EllipticityError):
            validate_ellipticity(coeff, rotated(eigenvalues, PI / 16)[None])

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.floats(1e-3, 1e3),
        spread=st.sampled_from([1.0, 1.0 + 1e-12]) | st.floats(1.0, 1.0 + 1e-6) | st.floats(1.0, 1e4),
        angle=st.floats(0.0, PI),
        lam_factor=st.just(0.0) | st.floats(0.5, 1.5),
        Lam_factor=st.just(math.inf) | st.floats(0.5, 1.5),
    )
    def test_raises_exactly_when_eigvalsh_leaves_bounds(self, lo, spread, angle, lam_factor, Lam_factor):
        mats = rotated((lo, lo * spread), angle)[None]
        lam, Lam = lam_factor * lo, Lam_factor * lo * spread
        ev = np.linalg.eigvalsh(mats)
        margin = 1e-9 * ev.max()
        low, high = ev.min() - (lam - fem.ELLIPTICITY_SLACK), ev.max() - (Lam + fem.ELLIPTICITY_SLACK)
        assume(lam == 0.0 or abs(low) > margin)
        assume(not math.isfinite(Lam) or abs(high) > margin)
        coeff = PiecewiseCoefficient(1.0, 1.0, lam=lam, Lam=Lam)
        if (lam > 0.0 and low < 0.0) or (math.isfinite(Lam) and high > 0.0):
            with pytest.raises(EllipticityError):
                validate_ellipticity(coeff, mats)
        else:
            validate_ellipticity(coeff, mats)


def einsum_stiffness(mesh, coeff):
    """The element matrices as a 4-index einsum, summed into CSR like ``fem._stiffness``."""
    bary = mesh.barycenters
    amat = coeff.evaluate(bary[:, 0], bary[:, 1], mesh.region)
    grads = mesh.basis_gradients
    ke = np.einsum("mid,mde,mje,m->mij", grads, amat, grads, mesh.areas)
    tri = mesh.triangles
    rows, cols = np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(mesh.n_vertices,) * 2).tocsr()


def twisted(x, y):
    """A varying anisotropic matrix field: eigenvalues 1 + y^2 and 3 + x, turned by 0.3 + x."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    c, s = np.cos(0.3 + x), np.sin(0.3 + x)
    l1, l2 = 1.0 + y * y, 3.0 + x
    off = (l1 - l2) * c * s
    rows = [np.stack([l1 * c * c + l2 * s * s, off], -1), np.stack([off, l1 * s * s + l2 * c * c], -1)]
    return np.stack(rows, -2)


STIFFNESS_COEFFS = {
    "isotropic": coefficient_jump(7.5),
    "anisotropic_constant": PiecewiseCoefficient(rotated((0.5, 4.0), 0.7), rotated((1.0, 2.0), -0.2), lam=0.5, Lam=4.0),
    "callable_matrix": PiecewiseCoefficient(twisted, 2.0, lam=1.0, Lam=5.0),
}


class TestStiffnessProduct:
    @pytest.mark.parametrize("coeff", STIFFNESS_COEFFS.values(), ids=STIFFNESS_COEFFS.keys())
    @pytest.mark.parametrize(
        "mesh",
        [
            generate_mesh(sector(-3 * PI / 4, 2 * PI / 3, 1.0), 0.08, 0.7),
            generate_nonobtuse_mesh(sector(-PI / 4, 3 * PI / 4, 1.0), 4),
        ],
        ids=["polar", "nonobtuse"],
    )
    def test_matches_einsum_reference(self, mesh, coeff):
        K, ref = fem._stiffness(mesh, coeff), einsum_stiffness(mesh, coeff)
        assert abs(K - ref).max() <= 1e-15 * abs(ref).max()


class TestDataWrappers:
    X = np.array([0.3, -0.2, 0.5, 0.1])
    Y = np.array([0.4, -0.3, -0.1, 0.2])
    SIDE = np.array([1, -1, -1, 1])
    UP = SIDE > 0
    ANISO = np.array([[2.0, 0.3], [0.3, 1.0]])

    @staticmethod
    def matrix_field(x, y):
        x = np.asarray(x)
        return np.stack(
            [np.stack([2.0 + x, 0.1 * y], -1), np.stack([0.1 * y, 1.0 + y * y], -1)], -2
        )

    def test_coefficient_constants_by_side(self):
        out = PiecewiseCoefficient(2.5, self.ANISO).evaluate(self.X, self.Y, self.SIDE)
        assert out.shape == (4, 2, 2)
        assert np.array_equal(out[self.UP], np.broadcast_to(2.5 * np.eye(2), (2, 2, 2)))
        assert np.array_equal(out[~self.UP], np.broadcast_to(self.ANISO, (2, 2, 2)))

    def test_coefficient_callables_by_side(self):
        # one value per point is isotropic; a matrix per point is used as is
        coeff = PiecewiseCoefficient(lambda x, y: 1.0 + x * x, self.matrix_field)
        out = coeff.evaluate(self.X, self.Y, self.SIDE)
        xu = self.X[self.UP]
        assert np.array_equal(out[self.UP], (1.0 + xu * xu)[:, None, None] * np.eye(2))
        assert np.array_equal(
            out[~self.UP], self.matrix_field(self.X[~self.UP], self.Y[~self.UP])
        )

    def test_coefficient_single_side(self):
        out = PiecewiseCoefficient(3.0, self.matrix_field).evaluate(self.X, self.Y, 1)
        assert np.array_equal(out, np.broadcast_to(3.0 * np.eye(2), (4, 2, 2)))

    def test_none_gives_zeros(self):
        spec = ProblemSpec(domain=sector(-PI / 4, PI / 2, 1.0), coeff=IDENTITY, phi=None)
        assert np.array_equal(spec.phi_at(self.X, self.Y), np.zeros(4))
        assert np.array_equal(spec.h_at(self.X, self.Y), np.zeros(4))
        assert np.array_equal(spec.g_at(self.X, self.Y, self.SIDE), np.zeros((4, 2)))

    def test_constants_keep_the_point_shape(self):
        spec = ProblemSpec(
            domain=sector(-PI / 4, PI / 2, 1.0), coeff=IDENTITY, phi=1.5,
            g_plus=(0.3, -0.2), g_minus=np.array([-0.1, 0.5]), h=-0.7,
        )
        x, y = self.X.reshape(2, 2), self.Y.reshape(2, 2)
        assert np.array_equal(spec.phi_at(x, y), np.full((2, 2), 1.5))
        assert np.array_equal(spec.h_at(x, y), np.full((2, 2), -0.7))
        assert np.shape(spec.h_at(0.1, 0.2)) == ()
        g = spec.g_at(self.X, self.Y, self.SIDE)
        assert np.array_equal(g[self.UP], [[0.3, -0.2]] * 2)
        assert np.array_equal(g[~self.UP], [[-0.1, 0.5]] * 2)

    def test_callables_with_mixed_sides(self):
        def g_minus(x, y):
            return np.stack([x * y, x - y], axis=-1)

        spec = ProblemSpec(
            domain=sector(-PI / 4, PI / 2, 1.0), coeff=IDENTITY,
            phi=lambda x, y: x + 2.0 * y, g_plus=None, g_minus=g_minus,
            h=lambda x, y: x * x,
        )
        assert np.array_equal(spec.phi_at(self.X, self.Y), self.X + 2.0 * self.Y)
        assert np.array_equal(spec.h_at(self.X, self.Y), self.X * self.X)
        g = spec.g_at(self.X, self.Y, self.SIDE)
        assert np.array_equal(g[self.UP], np.zeros((2, 2)))
        assert np.array_equal(g[~self.UP], g_minus(self.X[~self.UP], self.Y[~self.UP]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(phi=np.ones(2)),
            dict(phi=0.0, h=np.ones((2, 2))),
            dict(phi=0.0, g_plus=1.0),
            dict(phi=0.0, g_minus=(1.0, 2.0, 3.0)),
        ],
    )
    def test_wrong_shape_constant_rejected(self, kwargs):
        with pytest.raises(AssemblyError):
            ProblemSpec(domain=sector(-PI / 4, PI / 2, 1.0), coeff=IDENTITY, **kwargs)

    @pytest.mark.parametrize("a", [np.ones(2), np.ones((2, 3)), np.ones((1, 2, 2))])
    def test_wrong_shape_coefficient_rejected(self, a):
        with pytest.raises(AssemblyError):
            PiecewiseCoefficient(a, 1.0)


class TestSolveCg:
    def test_identity_converges_in_one_iteration(self):
        n = 40
        rng = np.random.default_rng(0)
        b = rng.normal(size=n)
        system = SparseSystem(
            matrix=sp.identity(n, format="csr"),
            rhs=b,
            constrained=np.zeros(0, dtype=np.int64),
            values=np.zeros(0),
        )
        x, diag = solve_cg(system, tol=1e-12)
        assert diag.iterations == 1
        assert np.allclose(x, b)

    def test_tridiagonal_matches_dense_solve(self):
        n = 100
        main = 2.0 * np.ones(n)
        off = -np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
        rng = np.random.default_rng(1)
        b = rng.normal(size=n)
        system = SparseSystem(A, b, np.zeros(0, dtype=np.int64), np.zeros(0))
        x, _ = solve_cg(system, tol=1e-14, max_iter=2000)
        x_ref = np.linalg.solve(A.toarray(), b)
        assert np.abs(x - x_ref).max() <= 1e-10

    def test_energy_norm_monotone_on_wedge_problem(self):
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)
        mesh = generate_mesh(dom, 0.18)
        spec = ProblemSpec(
            domain=dom, coeff=coefficient_jump(4.0), phi=lambda x, y: x + 0.2 * y, h=1.0
        )
        system = assemble(mesh, spec)
        free = np.setdiff1d(np.arange(system.n), system.constrained)
        Aff = system.matrix[free][:, free].toarray()
        bf = system.rhs[free] - system.matrix[free][:, system.constrained] @ system.values
        x_star = np.linalg.solve(Aff, bf)
        energies = []

        def cb(xk):
            # each iterate is on all vertices, with the Dirichlet values in place
            assert np.array_equal(xk[system.constrained], system.values)
            e = xk[free] - x_star
            energies.append(float(e @ Aff @ e))

        solve_cg(system, tol=1e-12, callback=cb)
        energies = np.array(energies)
        assert np.all(np.diff(energies) <= 1e-12 * max(energies[0], 1.0))

    def test_nonconvergence_raises_with_history(self):
        n = 50
        A = sp.diags(np.linspace(1.0, 1e6, n), format="csr")
        b = np.ones(n)
        system = SparseSystem(A, b, np.zeros(0, dtype=np.int64), np.zeros(0))
        with pytest.raises(SolverError) as err:
            solve_cg(system, tol=1e-300, max_iter=3)
        assert len(err.value.history) == 3

    def test_tolerance_validation(self):
        system = SparseSystem(
            sp.identity(3, format="csr"), np.ones(3), np.zeros(0, dtype=np.int64), np.zeros(0)
        )
        with pytest.raises(ValueError):
            solve_cg(system, tol=2.0)

    def test_zero_rhs_shortcut(self):
        system = SparseSystem(
            sp.identity(3, format="csr"), np.zeros(3), np.zeros(0, dtype=np.int64), np.zeros(0)
        )
        x, diag = solve_cg(system)
        assert diag.iterations == 0
        assert np.all(x == 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_matrix_named(self, bad):
        # the load and boundary data are finite; the matrix is not
        A = sp.identity(3, format="csr")
        A.data[1] = bad
        system = SparseSystem(A, np.ones(3), np.array([0]), np.array([1.0]))
        with pytest.raises(SolverError, match="matrix is not finite"):
            solve_cg(system)

    # on 6 vertices: [0, 0, 5] would count 3 free unknowns where 4 are free, 6 is past
    # the end, and -1 would pin vertex 5
    @pytest.mark.parametrize("constrained", [[0, 0, 5], [0, 6], [0, -1]])
    def test_constrained_vertices_must_be_distinct_and_in_range(self, constrained):
        system = SparseSystem(sp.identity(6, format="csr"), np.ones(6), np.array(constrained), np.zeros(len(constrained)))
        with pytest.raises(ValueError, match="distinct indices"):
            solve_cg(system)


def reduced_system(system):
    """(A_ff, b_f, free) of the Dirichlet-eliminated system, as ``solve_cg`` forms them."""
    free = np.setdiff1d(np.arange(system.n), system.constrained)
    rows = system.matrix[free]
    return rows[:, free], system.rhs[free] - rows[:, system.constrained] @ system.values, free


def dense_system(A):
    n = A.shape[0]
    rhs = np.linspace(1.0, 2.0, n)
    return SparseSystem(sp.csr_matrix(A), rhs, np.zeros(0, dtype=np.int64), np.zeros(0))


def unchained_mesh(domain, h, mu):
    """generate_mesh's polar mesh without a radial chain, so that a solve on it is line-CG at any size."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "RADIAL_LEVELS_VERTICES", math.inf)
        return generate_mesh(domain, h, mu)


def battery_case(instance):
    """(domain, mu, problem) of the witness (instance None) or of a criterion-8 instance."""
    from wedgelab.acceptance import WITNESS_MU, Workbench, _random_instance

    if instance is None:
        bench = Workbench()
        return bench.domain, WITNESS_MU, bench.problem
    spec = _random_instance(instance)[2]
    return spec.domain, 1.0, spec


def battery_system(instance, h):
    """The witness system (instance None) or a criterion-8 instance's, at mesh size h."""
    domain, mu, spec = battery_case(instance)
    return assemble(generate_mesh(domain, h, mu), spec)


def line_reference(system, instance, h):
    """``battery_system(instance, h)``'s matrix on its polar mesh without a radial chain: the line-CG reference."""
    domain, mu, _ = battery_case(instance)
    return dataclasses.replace(system, mesh=unchained_mesh(domain, h, mu))


@st.composite
def polar_cases(draw):
    """Reflex, thin and near-+-pi wedges, sides near 0, graded mu, and a coefficient jump."""
    near_zero = st.floats(1e-3, 0.05)
    near_pi = st.floats(PI - 1e-3, PI + 1e-3)
    theta_plus = draw(st.one_of(near_zero, near_pi, st.floats(0.05, 1.9 * PI)))
    theta_minus = -draw(st.one_of(near_zero, near_pi, st.floats(0.05, 1.9 * PI)))
    if theta_plus - theta_minus >= 2.0 * PI - 1e-3:  # keep the opening below 2 pi
        theta_minus = theta_plus - (2.0 * PI - 1e-3) * draw(st.floats(0.05, 1.0))
        if theta_minus >= 0.0:
            theta_minus = -1e-3
    h = draw(st.floats(0.05, 0.25))
    mu = draw(st.floats(0.3, 1.0))
    a0 = 10.0 ** draw(st.floats(-1.5, 1.5))
    return sector(theta_minus, theta_plus, 1.0), h, mu, a0


class TestLinePreconditioner:
    """CG preconditioned by the tridiagonal part of the reduced matrix on a layered mesh."""

    @pytest.mark.parametrize(
        "instance, h",
        [(None, h) for h in (1 / 45, 1 / 90, 1 / 180)]
        + [(i, h) for i in (0, 1, 40) for h in (0.12, 0.06, 0.03)],
    )
    def test_matches_jacobi_cg(self, instance, h):
        # the polar mesh without a chain (the 1/180 mesh records one) gives line-CG;
        # the system without a mesh gives Jacobi-CG
        system = line_reference(battery_system(instance, h), instance, h)
        x, diag = solve_cg(system)
        x_ref, diag_ref = solve_cg(dataclasses.replace(system, mesh=None))
        assert (diag.preconditioner, diag_ref.preconditioner) == ("line", "jacobi")
        assert diag.iterations < diag_ref.iterations
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize(
        "domain, h, mu",
        [(sector(-PI / 4, 3 * PI / 4), 0.1, 0.8), (sector(-PI / 4, 5 * PI / 4), 0.1, 0.5),
         (sector(-0.1, 0.1), 0.05, 1.0), (sector(-0.05, 0.05), 0.2, 1.0)],
    )
    def test_polar_meshes_pick_line(self, domain, h, mu):
        spec = ProblemSpec(domain=domain, coeff=coefficient_jump(4.0), phi=lambda x, y: x)
        _, diag = solve_cg(assemble(generate_mesh(domain, h, mu), spec))
        assert diag.preconditioner == "line"

    @pytest.mark.parametrize("levels", [3, 5])
    def test_nonobtuse_meshes_pick_jacobi(self, levels):
        # a refined fan is not layered, so a single level is Jacobi; a refinement with more
        # than COARSE_UNKNOWNS unknowns (level 5, not level 3) gets multigrid instead
        dom = sector(-PI / 4, 3 * PI / 4)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(4.0), phi=lambda x, y: x)
        system = assemble(generate_nonobtuse_mesh(dom, levels), spec)
        _, diag = solve_cg(system)
        assert not system.mesh.layered
        assert diag.preconditioner == ("multigrid" if levels == 5 else "jacobi")

    def test_diagonal_system_picks_jacobi(self):
        x, diag = solve_cg(dense_system(np.diag(np.linspace(1.0, 5.0, 7))))
        assert diag.preconditioner == "jacobi"
        assert np.allclose(x, np.linspace(1.0, 2.0, 7) / np.linspace(1.0, 5.0, 7), rtol=1e-12)

    def test_indefinite_band_falls_back_to_jacobi(self):
        # SPD (eigenvalues 0.1, 0.1, 2.8), but the tridiagonal part has
        # eigenvalue 1 - 0.9 sqrt(2) < 0, so dpttrf rejects it on a line level
        A = np.full((3, 3), 0.9) + 0.1 * np.eye(3)
        line_mesh = SimpleNamespace(layered=True, parent=None)
        kind, levels, precond = fem._preconditioner(sp.csr_matrix(A), line_mesh, np.zeros(0, dtype=np.int64))
        assert (kind, levels) == ("jacobi", [])
        np.testing.assert_array_equal(precond(np.ones(3)), 1.0 / np.diag(A))

    @settings(max_examples=100, deadline=None)
    @given(case=polar_cases())
    def test_converges_with_line_on_polar_meshes(self, case):
        domain, h, mu, a0 = case
        spec = ProblemSpec(
            domain=domain, coeff=coefficient_jump(a0), phi=lambda x, y: x - 0.5 * y * y, h=1.0
        )
        system = assemble(generate_mesh(domain, h, mu), spec)
        u, diag = solve_cg(system)
        assert diag.converged and diag.preconditioner == "line"
        assert np.array_equal(u[system.constrained], system.values)
        A_ff, b_f, free = reduced_system(system)
        assert np.linalg.norm(b_f - A_ff @ u[free]) <= 1e-9 * np.linalg.norm(b_f)

    @pytest.mark.parametrize(
        "domain, h", [(sector(-0.05, 0.05), 0.2), (sector(-0.05, 0.05), 0.06), (sector(-0.01, 0.01), 0.02),
                      (sector(-0.0005, 0.0005), 0.0005)],
    )
    def test_thin_wedges_with_one_free_ray(self, domain, h):
        # three rays: the corner, then layers of one free vertex between the two walls, and the
        # held outer arc; the band joins no two free vertices, so the line solve is the diagonal
        spec = ProblemSpec(domain=domain, coeff=coefficient_jump(4.0), phi=lambda x, y: x - 0.5 * y * y, h=1.0)
        system = assemble(generate_mesh(domain, h), spec)
        assert system.n == 1 + 3 * (system.n_free + 1)
        u, diag = solve_cg(system)
        assert diag.converged and diag.preconditioner == "line" and diag.iterations <= 20


def maxprinciple_system(case, levels):
    """Criterion 10's case ``case`` on its non-obtuse mesh with ``levels`` refinements."""
    from wedgelab.acceptance import _MAXPRINCIPLE_CASES, Workbench

    tp, tm, a0 = _MAXPRINCIPLE_CASES[case]
    dom = sector(tm, tp)
    spec = ProblemSpec(
        domain=dom,
        coeff=coefficient_jump(Workbench().jump.a0 if a0 is None else a0),
        phi=lambda x, y: np.asarray(x) + 0.4 * np.abs(np.asarray(y)),
    )
    return assemble(generate_nonobtuse_mesh(dom, levels), spec)


def assert_matches_single_level(system, tol=1e-10, rel=1e-8, reference=None):
    """Multigrid-CG on ``system`` agrees with a single-level solve; returns both diagnostics.

    The single level is ``reference``, by default the system without its mesh (Jacobi-CG).
    """
    u, diag = solve_cg(system, tol=tol, max_iter=20000)
    reference = dataclasses.replace(system, mesh=None) if reference is None else reference
    u_ref, ref = solve_cg(reference, tol=tol, max_iter=20000)
    assert ref.levels == 1 and ref.preconditioner != "multigrid"
    assert np.linalg.norm(u - u_ref) <= rel * np.linalg.norm(u_ref)
    return diag, ref


class TestMultigrid:
    """CG preconditioned by a V-cycle over the parents of a regularly refined mesh."""

    @pytest.mark.parametrize("case", range(3))
    @pytest.mark.parametrize("levels", range(3, 8))
    def test_matches_single_level_on_criterion_10_cases(self, case, levels):
        diag, ref = assert_matches_single_level(maxprinciple_system(case, levels), tol=1e-13)
        if levels >= 4:
            assert diag.preconditioner == "multigrid" and diag.levels == levels - 2
            assert diag.iterations <= 20 < ref.iterations
        else:  # at most COARSE_UNKNOWNS unknowns: no coarse level
            assert (diag.preconditioner, diag.levels, diag.iterations) == ("jacobi", 1, ref.iterations)

    @settings(max_examples=30, deadline=None)
    @given(case=polar_cases(), levels=st.integers(3, 5))
    # thin and ill-conditioned: at tol 1e-10 the two solves differ by 1.3e-8 relative
    @example(case=(sector(-0.001, 3.140625), 0.1, 1.0, 0.1), levels=4)
    def test_matches_single_level_on_sectors(self, case, levels):
        domain, _, _, a0 = case
        spec = ProblemSpec(
            domain=domain, coeff=coefficient_jump(a0), phi=lambda x, y: x - 0.5 * y * y, h=1.0
        )
        system = assemble(generate_nonobtuse_mesh(domain, levels), spec)
        # two solves each within tol of the solution agree to about cond(A) * tol, so the
        # 1e-8 bound needs a tolerance well below 1e-10 on these sectors
        diag, _ = assert_matches_single_level(system, tol=1e-12)
        assert diag.converged and diag.true_residual <= 1e-9
        assert (diag.preconditioner == "multigrid") == (system.n_free > fem.COARSE_UNKNOWNS)

    @pytest.mark.parametrize(
        "domain, h, mu, a0",
        [(sector(-PI / 4, 3 * PI / 4), 0.1, 0.8, 4.0), (sector(-PI / 4, 5 * PI / 4), 0.1, 0.5, 0.1),
         (sector(-0.1, 0.1), 0.05, 1.0, 10.0), (sector(-3.0, 3.0), 0.2, 0.3, 30.0)],
    )
    def test_matches_single_level_on_refined_graded_polar_meshes(self, domain, h, mu, a0):
        spec = ProblemSpec(
            domain=domain, coeff=coefficient_jump(a0), phi=lambda x, y: x - 0.5 * y * y, h=1.0
        )
        mesh = refine_regular(refine_regular(generate_mesh(domain, h, mu)))
        diag, ref = assert_matches_single_level(assemble(mesh, spec))
        assert (diag.preconditioner, diag.levels) == ("multigrid", 3)
        assert diag.iterations < ref.iterations

    def test_polar_meshes_stay_single_level(self):
        system = battery_system(None, 1 / 45)
        kind, levels, _, calls = preconditioner_levels(system)
        assert (kind, levels, [line for *_, line in calls]) == ("line", [], [True])
        _, diag = solve_cg(system)
        assert (diag.preconditioner, diag.levels) == ("line", 1)

    @settings(max_examples=30, deadline=None)
    @given(
        case=polar_cases(),
        family=st.sampled_from(["chain", "refined", "nonobtuse"]),
        chain_h=st.floats(0.025, 0.08),
        levels=st.integers(3, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    # line smoothers on the witness's forced radial chain; Jacobi ones on criterion-10 case 2's refined fan
    @example(case=(sector(-PI / 4, 3 * PI / 4), 0.1, 0.8, 2 + 5**0.5), family="chain", chain_h=1 / 45, levels=3, seed=3)
    @example(case=(sector(-3 * PI / 4, 2 * PI / 3), 0.1, 1.0, 5.0), family="nonobtuse", chain_h=0.05, levels=5, seed=3)
    def test_preconditioner_is_symmetric_positive(self, case, family, chain_h, levels, seed):
        # CG needs a symmetric positive definite preconditioner, of every kind
        domain, h, mu, a0 = case
        if family == "chain":
            system = chain_system(domain, chain_h, mu, a0)
        else:
            spec = ProblemSpec(domain=domain, coeff=coefficient_jump(a0), phi=lambda x, y: x, h=1.0)
            if family == "nonobtuse":
                mesh = generate_nonobtuse_mesh(domain, levels)
            else:
                mesh = refine_regular(refine_regular(generate_mesh(domain, h, mu)))
            system = assemble(mesh, spec)
        kind, hierarchy, precond, calls = preconditioner_levels(system)
        # each level's own solve reads its mesh's recorded lines; a densely factored coarsest level has none
        lines = [line for *_, line in calls]
        recorded = {"chain": [True] * 8, "refined": [False, False, True], "nonobtuse": [False] * 8}[family]
        assert lines == recorded[: len(lines)]
        assert len(lines) - len(hierarchy) in ((0, 1) if hierarchy else (1,))
        assert (kind == "multigrid") == bool(hierarchy)
        # vectors on all vertices with the constrained ones held at 0, which the map keeps at 0
        rng = np.random.default_rng(seed)
        r1, r2 = rng.normal(size=(2, system.n))
        r1[system.constrained] = r2[system.constrained] = 0.0
        z1, z2 = precond(r1), precond(r2)
        assert np.all(z1[system.constrained] == 0.0) and np.all(z2[system.constrained] == 0.0)
        lhs, rhs = float(z1 @ r2), float(r1 @ z2)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        assert float(r1 @ z1) > 0.0

    def test_prolongation_interpolates_linear_functions(self):
        # P maps the parent's nodal values of a linear function to the child's, on free vertices
        system = maxprinciple_system(0, 5)
        free = np.setdiff1d(np.arange(system.n), system.constrained)
        coarse = np.flatnonzero(~system.mesh.parent[0].boundary)
        P = preconditioner_levels(system)[1][0][1][free][:, coarse]
        v = system.mesh.vertices
        lin = 0.3 + v[:, 0] - 2.0 * v[:, 1]
        # a midpoint row drops the half of a Dirichlet end, so compare only the rows summing to 1
        full = np.asarray(abs(P).sum(axis=1)).ravel() == 1.0
        got = P @ lin[coarse]
        np.testing.assert_allclose(got[full], lin[free][full], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("case", range(3))
    @pytest.mark.parametrize("levels", range(4, 8))
    def test_prolongations_match_index_reference(self, case, levels):
        system = maxprinciple_system(case, levels)
        free = np.setdiff1d(np.arange(system.n), system.constrained)
        kind, hierarchy, _, calls = preconditioner_levels(system)
        want = reference_transfers(system.mesh, free)
        # the coarsest level (refinement level 3) is factored densely, so only the others take a line flag
        assert kind == "multigrid" and [line for *_, line in calls] == [False] * (levels - 3)
        assert len(hierarchy) == len(want) == levels - 3
        mesh = system.mesh
        for (_, P, restriction, _), R in zip(hierarchy, want):
            # the restriction is P^T read from P's own arrays, not a copy
            assert restriction.format == "csc"
            assert all(np.shares_memory(getattr(restriction, a), getattr(P, a)) for a in ("data", "indices", "indptr"))
            # the level's P has entries only on free rows and on the parent's free columns
            held, mesh = mesh.boundary, mesh.parent[0]
            assert P.shape == (held.size, mesh.n_vertices)
            assert not P[held].nnz and not P[:, mesh.boundary].nnz
            P = P[~held][:, ~mesh.boundary]
            assert P.shape == R.shape and (P != R).nnz == 0

    def test_repeated_solves_hold_no_hierarchy(self):
        # with cyclic GC off, a V-cycle that referenced itself would keep every
        # solve's levels alive (about 1 MB per solve on this mesh)
        dom = sector(-PI / 4, 3 * PI / 4)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(4.0), phi=lambda x, y: x)
        mesh = generate_nonobtuse_mesh(dom, 6)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert solve_on_mesh(spec, mesh).diagnostics.preconditioner == "multigrid"
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(5):
                solve_on_mesh(spec, mesh)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert grown < 1_000_000

    def test_max_iter_below_one_rejected(self):
        system = dense_system(np.diag([1.0, 2.0]))
        for bad in (0, -3):
            with pytest.raises(ValueError, match="iteration limit"):
                solve_cg(system, max_iter=bad)

    def test_records_the_setup_seconds(self):
        _, diag = solve_cg(maxprinciple_system(1, 5))
        assert diag.preconditioner == "multigrid" and 0.0 < diag.setup_s < 10.0
        # a zero right-hand side builds no preconditioner
        zero = dataclasses.replace(dense_system(np.diag([1.0, 2.0])), rhs=np.zeros(2))
        assert math.isnan(solve_cg(zero)[1].setup_s)

    def test_true_residual_is_one_matvec(self):
        system = maxprinciple_system(1, 5)
        u, diag = solve_cg(system, tol=1e-11)
        A_ff, b_f, free = reduced_system(system)
        true = np.linalg.norm(b_f - A_ff @ u[free]) / np.linalg.norm(b_f)
        assert diag.true_residual == pytest.approx(true, rel=1e-6)
        assert diag.true_residual <= 1e-10


def preconditioner_levels(system):
    """``fem._preconditioner`` on ``system``, as ``solve_cg`` calls it, and the (A, diag, free, damping, line) of each ``_level_solve`` call.

    The calls are the single level's, or each smoothed level's of the V-cycle
    and its coarsest level's unless that is factored densely.
    """
    calls, level_solve = [], fem._level_solve

    def recording(*args):
        calls.append(args)
        return level_solve(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fem, "_level_solve", recording)
        return (*fem._preconditioner(system.matrix, system.mesh, system.constrained), calls)


def reference_transfers(mesh, free):
    """The prolongations rebuilt by index arithmetic from the refinement layout.

    The parent's free vertices lead the child's, and vertex ``nv + k`` is the
    midpoint of edge k of the parent's edge table.
    """
    out = []
    while mesh.parent is not None and free.size > fem.COARSE_UNKNOWNS:
        mesh = mesh.parent[0]
        ends = edge_table(mesh.triangles)[0]
        n_c = int(np.searchsorted(free, mesh.n_vertices))
        if n_c == 0:
            break
        position = np.full(mesh.n_vertices, -1)
        position[free[:n_c]] = np.arange(n_c)
        cols = np.concatenate([np.arange(n_c), position[ends[free[n_c:] - mesh.n_vertices]].ravel()])
        rows = np.concatenate([np.arange(n_c), np.repeat(np.arange(n_c, free.size), 2)])
        vals = np.concatenate([np.ones(n_c), np.full(cols.size - n_c, 0.5)])
        keep = cols >= 0
        out.append(sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(free.size, n_c)))
        free = free[:n_c]
    return out


def reference_load(mesh, spec):
    """The load vector with every term contracted, zero data included."""
    v, tri = mesh.vertices, mesh.triangles
    mids = 0.5 * (v[tri] + v[tri[:, [1, 2, 0]]])  # (m, 3, 2): edges 01, 12, 20
    hx = spec.h_at(mids[..., 0], mids[..., 1])
    adj = np.array([[0, 2], [1, 0], [2, 1]])
    areas = mesh.areas[:, None]
    load_h = -(areas / 3.0) * 0.5 * (hx[:, adj[:, 0]] + hx[:, adj[:, 1]])
    gx = spec.g_at(
        mids[..., 0].ravel(), mids[..., 1].ravel(), np.repeat(mesh.region, 3)
    ).reshape(mids.shape)
    load_g = areas * np.einsum("mid,md->mi", mesh.basis_gradients, gx.mean(axis=1))
    rhs = np.zeros(mesh.n_vertices)
    np.add.at(rhs, mesh.triangles.ravel(), (load_h + load_g).ravel())
    return rhs


class TestRadialMultigrid:
    """CG preconditioned by a V-cycle over ``generate_mesh``'s radial chain, against line-CG."""

    def test_fine_witness_level_gets_multigrid(self):
        system = battery_system(None, 1 / 180)
        diag, ref = assert_matches_single_level(system, reference=line_reference(system, None, 1 / 180))
        assert (diag.preconditioner, diag.levels, ref.preconditioner) == ("multigrid", 8, "line")
        assert diag.iterations <= 12 < ref.iterations and diag.true_residual <= 1e-10

    @pytest.mark.parametrize("instance, h", [(None, 1 / 45), (None, 1 / 90)] + [(i, 0.03) for i in (0, 1, 40)])
    def test_smaller_meshes_keep_line_cg(self, instance, h):
        system = battery_system(instance, h)
        assert system.mesh.parent is None and system.mesh.layered
        _, diag = solve_cg(system)
        assert (diag.preconditioner, diag.levels) == ("line", 1)

    @pytest.mark.parametrize(
        "instance, h", [(None, 1 / 45), (None, 1 / 90)] + [(i, h) for i in (0, 1, 40) for h in (0.12, 0.06, 0.03)]
    )
    def test_forced_chain_matches_line_cg(self, instance, h, monkeypatch):
        monkeypatch.setattr(geometry, "RADIAL_LEVELS_VERTICES", 0)
        system = battery_system(instance, h)
        diag, ref = assert_matches_single_level(system, reference=line_reference(system, instance, h))
        if system.n_free > fem.COARSE_UNKNOWNS:
            assert diag.preconditioner == "multigrid" and diag.iterations <= 12 < ref.iterations
        else:
            assert (diag.preconditioner, diag.iterations) == ("line", ref.iterations)

    def test_iterations_stay_flat_on_the_witness_levels(self, monkeypatch):
        monkeypatch.setattr(geometry, "RADIAL_LEVELS_VERTICES", 0)
        diags = [solve_cg(battery_system(None, h))[1] for h in (1 / 45, 1 / 90, 1 / 180)]
        assert [d.levels for d in diags] == [6, 7, 8]
        assert {d.iterations for d in diags} <= {10, 11, 12}

    @settings(max_examples=30, deadline=None)
    @given(case=polar_cases(), h=st.floats(0.03, 0.1))
    def test_forced_chain_matches_line_cg_on_sectors(self, case, h):
        # finer than the cases' own h, so that most meshes have more than COARSE_UNKNOWNS unknowns
        domain, _, mu, a0 = case
        spec = ProblemSpec(
            domain=domain, coeff=coefficient_jump(a0), phi=lambda x, y: x - 0.5 * y * y, h=1.0
        )
        with pytest.MonkeyPatch.context() as m:
            m.setattr(geometry, "RADIAL_LEVELS_VERTICES", 0)
            system = assemble(generate_mesh(domain, h, mu), spec)
        # as on the refined sectors, the 1e-8 bound needs a tolerance well below 1e-10
        reference = dataclasses.replace(system, mesh=unchained_mesh(domain, h, mu))
        diag, ref = assert_matches_single_level(system, tol=1e-12, reference=reference)
        assert ref.preconditioner == "line"
        assert diag.converged and diag.true_residual <= 1e-9
        assert (diag.preconditioner == "multigrid") == (system.n_free > fem.COARSE_UNKNOWNS)


class TestFreeBlock:
    """``solve_cg`` reads the free unknowns' block in place, on all vertices with the constrained ones at 0."""

    # each case's iterations in the solve on the compact free unknowns that this one replaced
    COMPACT_ITERATIONS = {
        "witness 1/45": 53, "witness 1/90": 89, "witness 1/180": 11, "forced chain 1/90": 11,
        "criterion 10": 15, "criterion 8": 93,
    }

    @pytest.mark.parametrize("case", COMPACT_ITERATIONS)
    def test_solve_matches_direct_elimination(self, case, monkeypatch):
        # the reference is a direct solve of the sliced free block
        tol = 1e-10
        if case == "criterion 10":  # case 0 at refinement level 5, at criterion 10's tolerance
            system, tol = maxprinciple_system(0, 5), 1e-13
        elif case == "criterion 8":  # instance 0
            system = battery_system(0, 0.03)
        else:
            if case.startswith("forced"):
                monkeypatch.setattr(geometry, "RADIAL_LEVELS_VERTICES", 0)
            system = battery_system(None, 1 / int(case.rsplit("/", 1)[1]))
        u, diag = solve_cg(system, tol=tol)
        A_ff, b_f, free = reduced_system(system)
        u_ref = np.zeros(system.n)
        u_ref[free] = spsolve(A_ff.tocsc(), b_f)
        u_ref[system.constrained] = system.values
        assert diag.levels > 1 if case in ("witness 1/180", "forced chain 1/90", "criterion 10") else diag.levels == 1
        assert diag.iterations == self.COMPACT_ITERATIONS[case]
        assert np.array_equal(u[system.constrained], system.values)
        assert np.linalg.norm(u - u_ref) <= 1e-8 * np.linalg.norm(u_ref)

    def test_solve_holds_no_copy_of_the_matrix(self, monkeypatch):
        # when the preconditioner is built, the solve holds the free indices and b_f, about
        # 0.18 of the matrix's CSR bytes on this mesh; a sliced copy of the block adds about 1.0
        system = battery_system(None, 1 / 180)
        A = system.matrix
        csr_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        at_call, build = [], fem._preconditioner

        def traced(*args):
            at_call.append(tracemalloc.get_traced_memory()[0])
            return build(*args)

        monkeypatch.setattr(fem, "_preconditioner", traced)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, diag = solve_cg(system)
        finally:
            tracemalloc.stop()
        assert diag.levels == 8 and len(at_call) == 1
        assert at_call[0] - start < 0.25 * csr_bytes


def diagonal_product_hierarchy(system):
    """Each step's restricted prolongation and Galerkin operator, formed by diagonal-matrix products.

    The setup that the entry mask and ``((A P)^T P)^T`` replaced, kept as the
    reference: ``diags(free) P diags(coarse)`` and ``P^T A P``, converted to CSR.
    """
    A, mesh = system.matrix, system.mesh
    free = np.ones(system.n, dtype=bool)
    free[system.constrained] = False
    out = []
    while mesh.parent is not None and np.count_nonzero(free) > fem.COARSE_UNKNOWNS:
        mesh, P = mesh.parent
        coarse = ~mesh.boundary
        if not coarse.any():
            break
        P = (sp.diags(free * 1.0) @ P @ sp.diags(coarse * 1.0)).tocsr()
        A = (P.T @ A @ P).tocsr()
        out.append((P, A, coarse))
        free = coarse
    return out


def hierarchy_operators(system):
    """``preconditioner_levels(system)``'s levels and the coarse operator each step forms.

    The coarsest is read where it is factored: as the dense array with 1 on
    the diagonal at its held vertices, or as the matrix of its own solve.
    """
    dense, cho_factor = [], fem.cho_factor
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fem, "cho_factor", lambda a: dense.append(a) or cho_factor(a))
        _, levels, _, calls = preconditioner_levels(system)
    return levels, [A for A, *_ in levels[1:]] + [dense[0] if dense else calls[-1][0]]


HIERARCHY_SYSTEMS = {
    "witness 1/180": lambda: battery_system(None, 1 / 180),
    **{f"criterion 10 case {case}": lambda case=case: maxprinciple_system(case, 7) for case in range(3)},
}


class TestHierarchySetup:
    """The V-cycle's levels are built by an entry mask and ``((A P)^T P)^T``, damping folded into the smoothers."""

    @pytest.mark.parametrize("name", HIERARCHY_SYSTEMS)
    def test_matches_diagonal_products(self, name):
        system = HIERARCHY_SYSTEMS[name]()
        levels, operators = hierarchy_operators(system)
        want = diagonal_product_hierarchy(system)
        assert len(levels) == len(want) == len(operators) >= 4
        for (_, P, _, _), (P_ref, A_ref, coarse), A_c in zip(levels, want, operators):
            # the same arrays, so no explicit zeros either
            for a in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(P, a), getattr(P_ref, a))
            if isinstance(A_c, np.ndarray):  # factored densely
                A_ref = A_ref.toarray() + np.diag(~coarse * 1.0)
            assert abs(A_c - A_ref).max() <= 1e-14 * abs(A_ref).max()

    # Jacobi smoothers on criterion 10's fan; line smoothers on the witness chain, where a
    # tridiagonal solve of the band over the damping rounds apart from the damped solve of the
    # band by up to about 6e-14 relative after a cycle, as its band's conditioning amplifies rounding
    @pytest.mark.parametrize("name, bound", [("witness 1/180", 2e-13), ("criterion 10 case 0", 1e-14)])
    def test_folded_damping_matches_explicit_damping(self, name, bound):
        # the same levels, each smoother built undamped and its output scaled by the damping
        system = HIERARCHY_SYSTEMS[name]()
        level_solve = fem._level_solve

        def explicitly_damped(A, diag, free, damping, line):
            kind, solve = level_solve(A, diag, free, 1.0, line)
            return kind, lambda r: damping * solve(r)

        rng = np.random.default_rng(5)
        r = rng.normal(size=(3, system.n))
        r[:, system.constrained] = 0.0
        kind, _, folded = fem._preconditioner(system.matrix, system.mesh, system.constrained)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(fem, "_level_solve", explicitly_damped)
            _, _, explicit = fem._preconditioner(system.matrix, system.mesh, system.constrained)
        assert kind == "multigrid"
        for v in r:
            want = explicit(v)
            assert np.linalg.norm(folded(v) - want) <= bound * np.linalg.norm(want)

    def test_single_levels_stay_undamped(self):
        for system in (battery_system(None, 1 / 45), maxprinciple_system(0, 3)):
            calls = preconditioner_levels(system)[3]
            assert [damping for _, _, _, damping, _ in calls] == [1.0]

    @pytest.mark.parametrize("name", ["witness 1/180", "criterion 10 case 0"])
    def test_converts_only_the_prolongations_to_csc(self, name, monkeypatch):
        system = HIERARCHY_SYSTEMS[name]()
        converted, tocsc = [], sp.csr_matrix.tocsc

        def recording(self, *args, **kwargs):
            converted.append(self)
            return tocsc(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "tocsc", recording)
        levels = preconditioner_levels(system)[1]
        # one conversion per level, of its P: never of A or of a coarse operator
        assert len(converted) == len(levels)
        assert all(M is P for (_, P, _, _), M in zip(levels, converted))


# the share of the off-diagonal weight that the rule below compares the band's against
BAND_SHARE = 0.5


def band_share_kind(A, diag, free):
    """The single-level rule that read the line structure off the matrix, kept as the reference.

    "line" when the two off-diagonals of ``A``'s block on the ``free``
    vertices hold at least BAND_SHARE of its off-diagonal weight sum |A_ij|,
    i != j, and ``dpttrf`` accepts the band, else "jacobi".  The rule reads
    the block as the compact matrix that ``reduced_system`` slices out.
    """
    A, diag = A[free][:, free], diag[free]
    band = A.diagonal(1)
    off = float(np.abs(A.data).sum() - np.abs(diag).sum())
    if off > 0.0 and 2.0 * float(np.abs(band).sum()) >= BAND_SHARE * off and dpttrf(diag, band)[2] == 0:
        return "line"
    return "jacobi"


def level_kinds(system):
    """(kind the recorded lines give, kind the band-share rule gives) of each level a solve preconditions.

    The levels are those ``preconditioner_levels`` sees take their own solve.
    """
    calls = preconditioner_levels(system)[3]
    return [(fem._level_solve(*call)[0], band_share_kind(*call[:3])) for call in calls]


def band_share_iterations(system):
    """CG iterations on ``system`` when each level takes the band-share rule's kind."""
    level_solve = fem._level_solve
    with pytest.MonkeyPatch.context() as m:
        m.setattr(
            fem, "_level_solve",
            lambda A, d, free, damping, line: level_solve(A, d, free, damping, band_share_kind(A, d, free) == "line"),
        )
        return solve_cg(system)[1].iterations


def chain_system(domain, h, mu, a0):
    """A problem with jump a0 on generate_mesh's polar mesh with its radial chain forced."""
    spec = ProblemSpec(domain=domain, coeff=coefficient_jump(a0), phi=lambda x, y: x, h=1.0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "RADIAL_LEVELS_VERTICES", 0)
        return assemble(generate_mesh(domain, h, mu), spec)


class TestRecordedLines:
    """The preconditioner follows ``Mesh.layered``; the band-share rule it replaced is the reference."""

    @settings(max_examples=40, deadline=None)
    @given(case=polar_cases(), family=st.sampled_from(["polar", "chain", "refined"]), chain_h=st.floats(0.025, 0.08))
    @example(case=(sector(-0.001953125, 3.140625), 0.125, 1.0, 0.1), family="chain", chain_h=0.0625)
    def test_matches_band_share_rule_on_polar_meshes(self, case, family, chain_h):
        domain, h, mu, a0 = case
        if family == "chain":  # finer than the case's h, so that most chains have a coarse level
            system = chain_system(domain, chain_h, mu, a0)
        else:
            mesh = generate_mesh(domain, h, mu)
            mesh = refine_regular(refine_regular(mesh)) if family == "refined" else mesh
            spec = ProblemSpec(domain=domain, coeff=coefficient_jump(a0), phi=lambda x, y: x, h=1.0)
            system = assemble(mesh, spec)
        kinds = level_kinds(system)
        fine = "jacobi" if family == "refined" else "line"
        assert kinds[0] == (fine, fine)
        differ = [level for level, (got, want) in enumerate(kinds) if got != want]
        if differ:
            # only coarse levels of a chain on a wedge with a thin side differ (a side of at
            # most 0.007 rad in the cases seen): the band-share rule gave them Jacobi, and
            # their recorded lines take no more iterations
            assert family == "chain" and all(kinds[level] == ("line", "jacobi") for level in differ)
            assert solve_cg(system)[1].iterations <= band_share_iterations(system)

    def test_thin_side_chain_smooths_coarse_levels_by_lines(self):
        # a side of 0.001 rad: the band-share rule gave levels 1-3 Jacobi, and 28 iterations
        system = chain_system(sector(-0.001, 5.034), 0.0361, 0.99, 0.0367)
        kinds = level_kinds(system)
        assert kinds == [("line", "line")] + [("line", "jacobi")] * 3
        assert solve_cg(system)[1].iterations <= 9 and band_share_iterations(system) == 28

    @settings(max_examples=15, deadline=None)
    @given(case=polar_cases(), levels=st.integers(3, 7))
    def test_matches_band_share_rule_on_nonobtuse_meshes(self, case, levels):
        domain, _, _, a0 = case
        spec = ProblemSpec(domain=domain, coeff=coefficient_jump(a0), phi=lambda x, y: x)
        kinds = level_kinds(assemble(generate_nonobtuse_mesh(domain, levels), spec))
        assert kinds == [("jacobi", "jacobi")] * len(kinds)

    @pytest.mark.parametrize(
        "instance, size, kind, levels, most",
        [(None, 1 / 45, "line", 1, 53), (None, 1 / 90, "line", 1, 89), (None, 1 / 180, "multigrid", 8, 11),
         (0, 0.12, "line", 1, 26), (0, 0.06, "line", 1, 48), (0, 0.03, "line", 1, 93),
         ("criterion 10", 7, "multigrid", 5, 12)],
    )
    def test_benchmark_meshes(self, instance, size, kind, levels, most):
        # the witness levels and criterion-8 instance 0 at mesh size h = size, and
        # criterion-10 case 0 at refinement level size = 7; most is each one's count before
        # the band-share rule was deleted
        if instance == "criterion 10":
            system = maxprinciple_system(0, size)
        else:
            system = battery_system(instance, size)
        _, diag = solve_cg(system, tol=1e-10)
        assert (diag.preconditioner, diag.levels) == (kind, levels)
        assert diag.iterations <= most


class TestLoad:
    @pytest.mark.parametrize("h", [None, 2.0, lambda x, y: np.sin(x) + y])
    @pytest.mark.parametrize(
        "g_plus, g_minus",
        [(None, None), ((1.0, -0.5), None), (None, lambda x, y: np.stack([y, x * x], axis=-1)),
         ((0.3, 0.2), (-1.0, 2.0))],
    )
    def test_skipped_terms_leave_the_load_unchanged(self, h, g_plus, g_minus):
        dom = sector(-PI / 4, 3 * PI / 4)
        spec = ProblemSpec(
            domain=dom, coeff=coefficient_jump(3.0), phi=0.0, g_plus=g_plus, g_minus=g_minus, h=h
        )
        for mesh in (generate_mesh(dom, 0.1, 0.8), generate_nonobtuse_mesh(dom, 3)):
            assert np.array_equal(fem._load(mesh, spec), reference_load(mesh, spec))


class TestSolveProblem:
    def test_linear_exactness_identity(self):
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)
        spec = ProblemSpec(domain=dom, coeff=IDENTITY, phi=lambda x, y: x)
        fs = solve_on_mesh(spec, generate_mesh(dom, 0.15), tol=1e-14)
        assert np.abs(fs.values - fs.mesh.vertices[:, 0]).max() <= 1e-12

    def test_linear_exactness_with_jump(self):
        # u = x1 solves the jump problem: the conormal component of a grad(u)
        # vanishes on the interface, so no transmission defect arises
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(5.0), phi=lambda x, y: x)
        fs = solve_on_mesh(spec, generate_mesh(dom, 0.15), tol=1e-14)
        assert np.abs(fs.values - fs.mesh.vertices[:, 0]).max() <= 1e-12

    def test_dirichlet_values_exact(self):
        dom = sector(-PI / 3, PI / 2, 1.0)

        def phi(x, y):
            return np.cos(np.asarray(x)) + np.asarray(y)

        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(2.0), phi=phi)
        fs = solve_problem(spec, 0.2)
        vb = fs.mesh.vertices[fs.mesh.boundary]
        assert np.array_equal(
            fs.values[fs.mesh.boundary], phi(vb[:, 0], vb[:, 1])
        )

    def test_galerkin_residual_bounded_by_tolerance(self):
        dom = sector(-PI / 4, PI / 2, 1.0)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(3.0), phi=lambda x, y: x * y, h=2.0)
        mesh = generate_mesh(dom, 0.2)
        system = assemble(mesh, spec)
        tol = 1e-11
        u, diag = solve_cg(system, tol=tol)
        free = np.setdiff1d(np.arange(system.n), system.constrained)
        bf = system.rhs[free] - system.matrix[free][:, system.constrained] @ system.values
        residual = bf - system.matrix[free][:, free] @ u[free]
        assert np.linalg.norm(residual) <= tol * np.linalg.norm(bf)
        assert diag.final_residual <= tol

    @pytest.mark.parametrize(
        "data", [dict(h=math.nan), dict(phi=lambda x, y: (np.asarray(x) + 2.0) * math.inf)], ids=["nan_load", "inf_boundary"]
    )
    def test_nonfinite_data_raises_before_iterating(self, data):
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(2.0), **{"phi": 0.0, **data})
        with pytest.raises(SolverError, match="load or boundary data is not finite") as err:
            solve_problem(spec, 0.05)
        assert err.value.history == []

    def test_manufactured_smooth_rates(self):
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)

        def u(x, y):
            return np.sin(np.asarray(x)) * np.cos(np.asarray(y))

        def gu(x, y, s):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)

        def hh(x, y):
            return -2.0 * np.sin(np.asarray(x)) * np.cos(np.asarray(y))

        spec = ProblemSpec(domain=dom, coeff=IDENTITY, phi=u, h=hh)
        hs = [0.2, 0.1]
        l2s, h1s = [], []
        for h in hs:
            rep = error_report(solve_problem(spec, h), u, gu)
            l2s.append(rep.l2)
            h1s.append(rep.broken_h1)
        assert 1.8 <= fit_rate(hs, l2s) <= 2.2
        assert 0.8 <= fit_rate(hs, h1s) <= 1.2

    def test_maximum_principle_on_nonobtuse_mesh(self):
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)
        mesh = generate_nonobtuse_mesh(dom, levels=3)

        def phi(x, y):
            return np.asarray(x) + 0.4 * np.abs(np.asarray(y))

        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(4.0), phi=phi)
        fs = solve_on_mesh(spec, mesh, tol=1e-13, max_iter=20000)
        lo = fs.values[mesh.boundary].min()
        hi = fs.values[mesh.boundary].max()
        assert fs.values.max() <= hi + 1e-10
        assert fs.values.min() >= lo - 1e-10


class TestErrorReport:
    def test_interpolant_of_linear_is_exact(self):
        dom = sector(-PI / 4, PI / 2, 1.0)
        mesh = generate_mesh(dom, 0.25)
        values = 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
        fs = FemSolution(
            mesh=mesh,
            values=values,
            element_gradients=element_gradients(mesh, values),
            diagnostics=CgDiagnostics(0, 0.0, np.zeros(0), 0, True),
        )

        def exact(x, y):
            return 2.0 * np.asarray(x) - np.asarray(y)

        def gexact(x, y, s):
            x = np.asarray(x, dtype=float)
            return np.full_like(x, 2.0), np.full_like(x, -1.0)

        rep = error_report(fs, exact, gexact)
        assert rep.l2 <= 1e-12
        assert rep.broken_h1 <= 1e-12
        assert rep.linf <= 1e-12

    def test_singular_example_linf_decreases(self):
        from wedgelab.exact_solutions import (
            build_dirichlet_example,
            eval_separable_xy,
            grad_separable_xy,
        )
        from wedgelab.geometry import make_wedge

        w = make_wedge(-PI / 4, 3 * PI / 4)
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)
        sol, jump = build_dirichlet_example(0.8, w)
        spec = ProblemSpec(
            domain=dom,
            coeff=coefficient_jump(jump.a0),
            phi=lambda x, y: eval_separable_xy(sol, x, y),
        )
        linfs = []
        for h in (0.2, 0.1, 0.05):
            fs = solve_problem(spec, h, 1.0)
            rep = error_report(
                fs,
                lambda x, y: eval_separable_xy(sol, x, y),
                lambda x, y, s: grad_separable_xy(sol, x, y, s),
            )
            linfs.append(rep.linf)
        assert linfs[2] < linfs[1] < linfs[0]

    def test_graded_beats_uniform_at_matched_unknowns(self):
        from wedgelab.exact_solutions import build_dirichlet_example, eval_separable_xy, grad_separable_xy
        from wedgelab.geometry import make_wedge

        w = make_wedge(-PI / 4, 3 * PI / 4)
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)
        sol, jump = build_dirichlet_example(0.8, w)
        exact = lambda x, y: eval_separable_xy(sol, x, y)
        exact_grad = lambda x, y, s: grad_separable_xy(sol, x, y, s)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(jump.a0), phi=exact)
        fs_uni = solve_problem(spec, 0.05, 1.0)
        fs_gra = solve_problem(spec, 0.05, 0.8)
        # same mesh family and layer counts, only the grading differs
        assert fs_gra.mesh.n_vertices == fs_uni.mesh.n_vertices
        e_uni = error_report(fs_uni, exact, exact_grad).l2
        e_gra = error_report(fs_gra, exact, exact_grad).l2
        assert e_gra < e_uni


class TestSolutionField:
    def test_barycenter_field_shape_and_tags(self):
        dom = sector(-PI / 4, PI / 2, 1.0)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(2.0), phi=lambda x, y: x)
        fs = solve_problem(spec, 0.3)
        fld = solution_field(fs)
        assert fld.n == fs.mesh.n_triangles
        assert np.array_equal(fld.regions, fs.mesh.region)
        assert fld.gradients.shape == (fs.mesh.n_triangles, 2)

    def test_one_read_only_field_per_solve(self):
        # later calls share the field, so no caller may change what the next one sees
        dom = sector(-PI / 4, PI / 2, 1.0)
        spec = ProblemSpec(domain=dom, coeff=coefficient_jump(2.0), phi=lambda x, y: x)
        fs = solve_problem(spec, 0.3)
        fld = solution_field(fs)
        assert solution_field(fs) is fld
        assert np.array_equal(fld.gradients, fs.element_gradients)
        for arr in (fld.points, fld.values, fld.gradients, fld.regions):
            with pytest.raises(ValueError):
                arr[0] = 0
        grad00, val0 = fld.gradients[0, 0], fld.values[0]
        fs.element_gradients[0, 0] += 1.0
        fs.values[0] += 1.0
        # the field holds its own copies: a changed solve is not re-read
        assert solution_field(fs) is fld
        assert fld.gradients[0, 0] == grad00 and fld.values[0] == val0
        assert "_memo" not in repr(fs)
        other = solve_problem(spec, 0.3)
        assert solution_field(other) is not fld


def coo_stiffness(mesh, coeff):
    """The stiffness as all nine entries of each element matrix summed by one COO -> CSR conversion."""
    bary = mesh.barycenters
    amat = coeff.evaluate(bary[:, 0], bary[:, 1], mesh.region)
    grads = mesh.basis_gradients
    ke = grads @ amat
    del amat
    ke = ke @ grads.mT
    ke *= mesh.areas[:, None, None]
    tri = mesh.triangles.astype(np.int32)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    shape = (mesh.n_vertices, mesh.n_vertices)
    return sp.coo_matrix((ke.ravel(), (rows, cols)), shape=shape).tocsr()


@st.composite
def stiffness_meshes(draw):
    """Polar meshes (reflex, near-2 pi, graded), regularly refined ones, and non-obtuse ones."""
    domain, h, mu, _ = draw(polar_cases())
    kind = draw(st.sampled_from(["polar", "refined", "nonobtuse"]))
    if kind == "polar":
        return generate_mesh(domain, h, mu)
    if kind == "refined":
        return refine_regular(generate_mesh(domain, max(h, 0.15), mu))
    return generate_nonobtuse_mesh(domain, draw(st.integers(1, 4)))


class TestSymmetricStiffness:
    """``_stiffness`` assembles the diagonal and the upper triangle only."""

    @settings(max_examples=40, deadline=None)
    @given(mesh=stiffness_meshes(), coeff=st.sampled_from(list(STIFFNESS_COEFFS.values())))
    def test_matches_coo_assembly(self, mesh, coeff):
        A, ref = fem._stiffness(mesh, coeff), coo_stiffness(mesh, coeff)
        # the same pattern, explicit zeros included, and the same index dtypes
        assert A.indptr.dtype == ref.indptr.dtype and A.indices.dtype == ref.indices.dtype
        assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
        assert A.data.dtype == ref.data.dtype
        assert np.abs(A.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()
        assert (A != A.T).nnz == 0


class TestConstantCoefficientCheck:
    """``_stiffness`` checks a constant coefficient once per side that an element uses, not on each element."""

    MESH = generate_nonobtuse_mesh(sector(-PI / 4, 3 * PI / 4, 1.0), 3)

    @pytest.mark.parametrize("coeff", STIFFNESS_COEFFS.values(), ids=STIFFNESS_COEFFS.keys())
    def test_constant_reaches_the_check_with_at_most_two_matrices(self, coeff, monkeypatch):
        sizes, check = [], fem.validate_ellipticity
        monkeypatch.setattr(fem, "validate_ellipticity", lambda c, mats: sizes.append(len(mats)) or check(c, mats))
        fem._stiffness(self.MESH, coeff)
        # a callable branch is checked at every element's barycenter
        assert sizes == ([self.MESH.n_triangles] if callable(coeff.a_plus) else [2])

    @pytest.mark.parametrize(
        "a_plus, a_minus",
        [(1.0, 5.0), (0.1, 1.0), (5.0, 0.1), (math.nan, 1.0), (np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0),
         (twisted, 0.1)],
        ids=["above Lambda", "below lambda", "both", "not finite", "asymmetric", "beside a callable"],
    )
    def test_invalid_branch_raises_the_per_element_message(self, a_plus, a_minus):
        # the message of the check on every element's matrix, from assemble itself
        coeff = PiecewiseCoefficient(a_plus, a_minus, lam=0.5, Lam=4.0)
        bary = self.MESH.barycenters
        with pytest.raises(EllipticityError) as want:
            validate_ellipticity(coeff, coeff.evaluate(bary[:, 0], bary[:, 1], self.MESH.region))
        spec = ProblemSpec(domain=sector(-PI / 4, 3 * PI / 4, 1.0), coeff=coeff, phi=0.0)
        with pytest.raises(EllipticityError) as got:
            assemble(self.MESH, spec)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("side", [1, -1])
    def test_branch_no_element_uses_is_not_checked(self, side):
        coeff = PiecewiseCoefficient(1.0, 5.0, lam=0.5, Lam=2.0)  # only the lower branch exceeds Lambda
        mesh = dataclasses.replace(single_triangle_mesh(), region=np.array([side], dtype=np.int8))
        if side > 0:
            fem._stiffness(mesh, coeff)
        else:
            with pytest.raises(EllipticityError, match="exceeds Lambda = 2.0: max eigenvalue 5"):
                fem._stiffness(mesh, coeff)


def full_array_error_report(fs, exact, exact_grad):
    """``error_report`` with the reference functions called once on all midpoints and all vertices."""
    mesh = fs.mesh
    areas = mesh.areas
    cx, cy = mesh.vertex_columns()
    mx = np.ascontiguousarray(((cx + cx[[1, 2, 0]]) * 0.5).T).ravel()
    my = np.ascontiguousarray(((cy + cy[[1, 2, 0]]) * 0.5).T).ravel()
    del cx, cy
    u = fs.values[mesh.triangles.T]
    err = 0.5 * (u + u[[1, 2, 0]])
    del u
    err -= exact(mx, my).reshape(-1, 3).T

    def rule(sq):
        return math.sqrt(float((areas / 3.0 * (sq[0] + sq[1] + sq[2])).sum()))

    l2 = rule(err**2)
    gx, gy = exact_grad(mx, my, np.repeat(mesh.region, 3))
    gh = fs.element_gradients
    broken = rule((gh[:, 0] - gx.reshape(-1, 3).T) ** 2 + (gh[:, 1] - gy.reshape(-1, 3).T) ** 2)
    ue_vert = exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
    linf = float(max(np.abs(fs.values - ue_vert).max(), np.abs(err).max()))
    return fem.ErrorReport(l2=l2, broken_h1=broken, linf=linf)


@pytest.fixture(scope="module")
def witness_levels():
    """The witness problem's exact functions and its solutions at the three witness levels."""
    from wedgelab.acceptance import WITNESS_LEVELS, WITNESS_MU, Workbench
    from wedgelab.exact_solutions import eval_separable_xy, grad_separable_xy

    bench = Workbench()
    exact = lambda x, y: eval_separable_xy(bench.solution, x, y)  # noqa: E731
    exact_grad = lambda x, y, s: grad_separable_xy(bench.solution, x, y, s)  # noqa: E731
    return bench, exact, exact_grad, [solve_problem(bench.problem, h, WITNESS_MU) for h in WITNESS_LEVELS]


def as_hex(report):
    return tuple(float(v).hex() for v in dataclasses.astuple(report))


class TestBlockedErrorReport:
    """``error_report`` walks the elements and vertices in blocks of ``QUADRATURE_BLOCK``."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("blocks", ["default", "one partial", "exactly one", "several"])
    def test_equals_full_array_version(self, witness_levels, level, blocks, monkeypatch):
        _, exact, exact_grad, solutions = witness_levels
        fs = solutions[level]
        nt, nv = fs.mesh.n_triangles, fs.mesh.n_vertices
        # "several": four element blocks and two vertex blocks, each set with a remainder
        size = {"default": fem.QUADRATURE_BLOCK, "one partial": nt + 7, "exactly one": nt, "several": nt // 4 + 3}[blocks]
        if blocks == "several":
            assert nt % size and nv % size and nv > size
        monkeypatch.setattr(fem, "QUADRATURE_BLOCK", size)
        assert as_hex(error_report(fs, exact, exact_grad)) == as_hex(full_array_error_report(fs, exact, exact_grad))

    def test_reference_functions_see_only_blocks(self, witness_levels, monkeypatch):
        _, exact, exact_grad, solutions = witness_levels
        monkeypatch.setattr(fem, "QUADRATURE_BLOCK", 1000)
        sizes = []

        def counted(x, y):
            sizes.append(np.size(x))
            return exact(x, y)

        error_report(solutions[0], counted, exact_grad)
        assert max(sizes) == 3000 and sum(sizes) == 3 * solutions[0].mesh.n_triangles + solutions[0].mesh.n_vertices


def traced_peak(fn, *args):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryPeaks:
    """tracemalloc peaks on the h = 1/90 witness mesh against the full-array versions."""

    def test_stiffness_peak(self, witness_levels):
        bench, _, _, solutions = witness_levels
        mesh = solutions[1].mesh
        fem._stiffness(mesh, bench.coeff)  # the mesh's cached element arrays exist before tracing
        assert traced_peak(fem._stiffness, mesh, bench.coeff) <= 0.6 * traced_peak(coo_stiffness, mesh, bench.coeff)

    def test_error_report_peak(self, witness_levels):
        _, exact, exact_grad, solutions = witness_levels
        fs = solutions[1]
        peak = traced_peak(error_report, fs, exact, exact_grad)
        assert peak <= 0.5 * traced_peak(full_array_error_report, fs, exact, exact_grad)
