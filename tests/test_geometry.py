import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedgelab import acceptance, analysis, fem, geometry
from wedgelab.geometry import (
    GeometryError,
    Mesh,
    delta_dist_arr,
    edge_table,
    generate_mesh,
    generate_nonobtuse_mesh,
    interface_edges,
    make_wedge,
    max_interior_angle,
    refine_regular,
    sector,
    validate_mesh,
    wedge_angles,
)

PI = math.pi


# Reference implementations: the per-element loops the vectorized code replaced.


def ref_wedge_angle(w, x, y):
    theta = math.atan2(y, x) if (x != 0.0 or y != 0.0) else 0.0
    best = theta
    for cand in (theta - 2 * PI, theta + 2 * PI):
        if ref_interval_dist(cand, w.theta_minus, w.theta_plus) < ref_interval_dist(
            best, w.theta_minus, w.theta_plus
        ):
            best = cand
    return best


def ref_interval_dist(t, lo, hi):
    if t < lo:
        return lo - t
    if t > hi:
        return t - hi
    return 0.0


def ref_edge_counts(triangles):
    counts = {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
    return counts


def ref_boundary_edges(triangles):
    return [e for e, n in ref_edge_counts(triangles).items() if n == 1]


def ref_interface_edges(vertices, triangles):
    scale = float(np.max(np.abs(vertices))) or 1.0
    eps = 1e-12 * scale
    on_ray = (np.abs(vertices[:, 1]) <= eps) & (vertices[:, 0] >= -eps)
    edges = set()
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            if on_ray[u] and on_ray[v]:
                edges.add((u, v) if u < v else (v, u))
    if not edges:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(sorted(edges), dtype=np.int64)


def ref_neighbors(triangles):
    nbrs = -np.ones((triangles.shape[0], 3), dtype=np.int64)
    owner = {}
    for t, (a, b, c) in enumerate(triangles):
        for i, (u, v) in enumerate(((b, c), (c, a), (a, b))):
            key = (u, v) if u < v else (v, u)
            if key in owner:
                t2, i2 = owner.pop(key)
                nbrs[t, i] = t2
                nbrs[t2, i2] = t
            else:
                owner[key] = (t, i)
    return nbrs


def ref_refine_regular(mesh):
    # midpoints are numbered after the parent's vertices, in sorted (lo, hi) order
    keys = sorted(ref_edge_counts(mesh.triangles.tolist()))
    midpoint = {key: mesh.n_vertices + k for k, key in enumerate(keys)}
    new_pts = [0.5 * (mesh.vertices[u] + mesh.vertices[v]) for u, v in keys]

    def mid(u, v):
        return midpoint[(u, v) if u < v else (v, u)]

    tris, tags = [], []
    for (a, b, c), tag in zip(mesh.triangles, mesh.region):
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
        tags.extend([tag] * 4)
    vertices = np.vstack([mesh.vertices] + new_pts)
    boundary = np.zeros(vertices.shape[0], dtype=bool)
    boundary[: mesh.n_vertices] = mesh.boundary
    bedges = set(ref_boundary_edges(mesh.triangles))
    for key, idx in midpoint.items():
        boundary[idx] = key in bedges
    triangles = np.asarray(tris, dtype=np.int64)
    return vertices, triangles, np.asarray(tags, dtype=np.int8), boundary


def ref_max_interior_angle(pts):
    """The loop over the (nt, 3, 2) gather ``vertices[triangles]`` that max_interior_angle replaced."""
    worst = 0.0
    for i in range(3):
        a, b, c = pts[:, i], pts[:, (i + 1) % 3], pts[:, (i + 2) % 3]
        u, v = b - a, c - a
        cosang = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        worst = max(worst, float(np.arccos(np.clip(cosang, -1.0, 1.0)).max()))
    return worst


def ref_polar_topology(n_layers, n_rays, iface_col):
    """Triangles, tags, boundary flags and interface edges of generate_mesh."""

    def vid(i, j):
        return 1 + (i - 1) * n_rays + j

    tris, tags = [], []
    for j in range(n_rays - 1):
        tris.append((0, vid(1, j), vid(1, j + 1)))
        tags.append(1 if j >= iface_col else -1)
    for i in range(1, n_layers):
        for j in range(n_rays - 1):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            tris.extend([(a, c, d), (a, d, b)])
            tags.extend([1 if j >= iface_col else -1] * 2)
    boundary = np.zeros(1 + n_layers * n_rays, dtype=bool)
    boundary[0] = True
    for i in range(1, n_layers + 1):
        boundary[vid(i, 0)] = boundary[vid(i, n_rays - 1)] = True
    for j in range(n_rays):
        boundary[vid(n_layers, j)] = True
    iface = [(0, vid(1, iface_col))]
    iface.extend((vid(i, iface_col), vid(i + 1, iface_col)) for i in range(1, n_layers))
    return np.asarray(tris), np.asarray(tags), boundary, np.asarray(iface)


REFLEX = sector(-3 * PI / 4, 2 * PI / 3, 1.0)
TOPOLOGY_MESHES = [
    ("straight", lambda: generate_mesh(sector(-PI / 4, 3 * PI / 4, 1.0), 0.1, 1.0)),
    ("reflex", lambda: generate_mesh(REFLEX, 0.1, 1.0)),
    ("graded", lambda: generate_mesh(sector(-PI / 4, 3 * PI / 4, 1.0), 0.07, 0.6)),
] + [
    (f"nonobtuse{lev}", lambda lev=lev: generate_nonobtuse_mesh(REFLEX, lev))
    for lev in range(5)
]


class TestWedge:
    def test_straight_wall_example(self):
        w = make_wedge(-PI / 4, 3 * PI / 4)
        assert w.opening == pytest.approx(PI)

    def test_symmetric_half_plane(self):
        w = make_wedge(-PI / 2, PI / 2)
        assert w.opening == pytest.approx(PI)

    def test_opening_of_two_pi_rejected(self):
        with pytest.raises(GeometryError):
            make_wedge(-0.1, 6.2)

    def test_sign_constraints(self):
        with pytest.raises(GeometryError):
            make_wedge(0.1, 1.0)
        with pytest.raises(GeometryError):
            make_wedge(-1.0, -0.1)

    def test_sector_radius_positive(self):
        for radius in (0.0, math.nan, math.inf):  # an infinite radius overflowed in generate_mesh
            with pytest.raises(GeometryError):
                sector(-PI / 4, PI / 4, radius)


class TestPolar:
    """Polar coordinates of Cartesian points: ``np.hypot`` and ``wedge_angles``."""

    @pytest.mark.parametrize(
        "p,r,theta",
        [
            ((1.0, 0.0), 1.0, 0.0),
            ((0.0, 1.0), 1.0, PI / 2),
            ((-1.0, -1.0), math.sqrt(2.0), -3 * PI / 4),
        ],
    )
    def test_known_points(self, p, r, theta):
        w = make_wedge(-7 * PI / 8, 7 * PI / 8)
        assert np.hypot(*p) == pytest.approx(r)
        assert wedge_angles(w, *p) == pytest.approx(theta)

    def test_origin_angle_convention(self):
        w = make_wedge(-PI / 4, 5 * PI / 4)
        assert wedge_angles(w, np.zeros(3), np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_round_trip(self):
        # the reflex wedge moves some angles by 2 pi; the point must not move
        w = make_wedge(-PI / 4, 5 * PI / 4)
        p = np.random.default_rng(5).normal(size=(200, 2))
        r, theta = np.hypot(p[:, 0], p[:, 1]), wedge_angles(w, p[:, 0], p[:, 1])
        assert np.any(theta > PI)
        q = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        assert np.allclose(q, p, atol=1e-12)


class TestDelta:
    def test_interior_point(self):
        assert delta_dist_arr(np.array([[0.3, 0.0]]))[0] == pytest.approx(0.3)

    def test_capped_at_one(self):
        assert delta_dist_arr(np.array([[3.0, 4.0]]))[0] == 1.0

    def test_origin(self):
        assert delta_dist_arr(np.array([[0.0, 0.0]]))[0] == 0.0


class TestGenerateMesh:
    @pytest.fixture
    def dom(self):
        return sector(-PI / 4, 3 * PI / 4, 1.0)

    def test_structural(self, dom):
        mesh = generate_mesh(dom, 0.25, 1.0)
        validate_mesh(mesh, dom)
        assert set(np.unique(mesh.region)) == {-1, 1}
        # interface edges lie on theta = 0
        for u, v in interface_edges(mesh)[0]:
            assert abs(mesh.vertices[u, 1]) < 1e-14
            assert abs(mesh.vertices[v, 1]) < 1e-14

    def test_graded_layer_radii(self, dom):
        # layer formula r_i = R (i/N)^(1/mu) evaluated directly
        mesh = generate_mesh(dom, 0.25, 0.5)
        radii = np.unique(np.round(np.hypot(*mesh.vertices.T), 12))
        n = 4
        expected = np.concatenate([[0.0], (np.arange(1, n + 1) / n) ** 2.0])
        assert np.allclose(radii, expected, atol=1e-12)

    def test_vertex_growth_under_halving(self, dom):
        n1 = generate_mesh(dom, 0.1, 1.0).n_vertices
        n2 = generate_mesh(dom, 0.05, 1.0).n_vertices
        assert 3.2 < n2 / n1 < 4.8

    def test_grading_monotone_and_bounded_for_uniform(self, dom):
        mesh = generate_mesh(dom, 0.1, 1.0)
        radii = np.unique(np.round(np.hypot(*mesh.vertices.T), 12))
        radii = radii[radii > 0]
        assert np.all(np.diff(radii) > 0)
        assert np.all(radii[1:] / radii[:-1] <= 2.0 + 1e-12)

    def test_conformity_interior_edges_shared_twice(self, dom):
        mesh = generate_mesh(dom, 0.2, 1.0)
        edges, _, counts, _ = edge_table(mesh.triangles)
        assert set(counts.tolist()) <= {1, 2}
        for (u, v), c in zip(edges, counts):
            if c == 1:
                assert mesh.boundary[u] and mesh.boundary[v]

    @pytest.mark.parametrize(
        "tm,tp,h,mu", [(-PI / 4, 3 * PI / 4, 0.05, 0.8), (-3 * PI / 4, 2 * PI / 3, 0.1, 0.6)]
    )
    def test_topology_matches_loop_reference(self, tm, tp, h, mu):
        mesh = generate_mesh(sector(tm, tp, 1.0), h, mu)
        n_minus, n_plus = math.ceil(-tm / h), math.ceil(tp / h)
        n_layers, n_rays = math.ceil(1 / h), n_minus + n_plus + 1
        tris, tags, boundary, iface = ref_polar_topology(n_layers, n_rays, n_minus)
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.region, tags)
        assert np.array_equal(mesh.boundary, boundary)
        assert np.array_equal(interface_edges(mesh)[0], iface)

    def test_interface_fit(self, dom):
        mesh = generate_mesh(dom, 0.15, 0.7)
        y = mesh.vertices[:, 1][mesh.triangles]
        assert not np.any(np.any(y > 1e-13, axis=1) & np.any(y < -1e-13, axis=1))

    def test_rejects_bad_parameters(self, dom):
        with pytest.raises(GeometryError):
            generate_mesh(dom, 1.5, 1.0)  # h >= R
        with pytest.raises(GeometryError):
            generate_mesh(dom, 0.1, 0.0)
        with pytest.raises(GeometryError):
            generate_mesh(dom, 0.1, 1.5)

    def test_positive_orientation(self, dom):
        mesh = generate_mesh(dom, 0.2, 0.6)
        assert np.all(mesh.areas > 0)

    def test_reflex_wedge(self):
        dom = sector(-3 * PI / 4, 2 * PI / 3, 1.0)
        mesh = generate_mesh(dom, 0.2, 1.0)
        validate_mesh(mesh, dom)


class TestNonObtuse:
    def test_max_angle_at_most_right(self):
        dom = sector(-PI / 4, 3 * PI / 4, 1.0)
        mesh = generate_nonobtuse_mesh(dom, levels=3)
        validate_mesh(mesh, dom)
        assert max_interior_angle(mesh) <= PI / 2 + 1e-12

    def test_reflex_wedge_stays_nonobtuse(self):
        dom = sector(-3 * PI / 4, 2 * PI / 3, 1.0)
        mesh = generate_nonobtuse_mesh(dom, levels=2)
        assert max_interior_angle(mesh) <= PI / 2 + 1e-12

    @pytest.mark.parametrize("case", range(len(acceptance._MAXPRINCIPLE_CASES)))
    @pytest.mark.parametrize(
        "levels, angles",
        [
            (4, ["0x1.2d97c7f3321dap+0", "0x1.2d97c7f3321d9p+0", "0x1.2d97c7f3321dap+0"]),
            (7, ["0x1.2d97c7f33221bp+0", "0x1.2d97c7f33221bp+0", "0x1.2d97c7f332218p+0"]),
        ],
    )
    def test_max_interior_angle_on_criterion_10_meshes(self, case, levels, angles):
        # criterion 10 solves at level 4 and its benchmark at level 7; the values
        # are those of the (nt, 3, 2) loop, ref_max_interior_angle
        tp, tm, _ = acceptance._MAXPRINCIPLE_CASES[case]
        mesh = generate_nonobtuse_mesh(sector(tm, tp, 1.0), levels)
        assert max_interior_angle(mesh).hex() == angles[case]

    def test_refinement_quarters_triangles(self):
        dom = sector(-PI / 3, PI / 3, 1.0)
        coarse = generate_nonobtuse_mesh(dom, levels=1)
        fine = refine_regular(coarse)
        assert fine.n_triangles == 4 * coarse.n_triangles
        validate_mesh(fine, dom)


class TestParent:
    @settings(max_examples=40, deadline=None)
    @given(
        w=st.sampled_from([
            (-3 * PI / 4, 2 * PI / 3),  # reflex
            (-0.05, 0.1),  # thin
            (-0.3, 2 * PI - 1e-3 - 0.3),  # opening near 2 pi
        ]) | st.tuples(st.floats(-2 * PI + 0.2, -0.01), st.floats(0.01, 2 * PI)).filter(
            lambda t: t[1] - t[0] < 2 * PI
        ),
        lev=st.integers(0, 5),
        coef=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    )
    def test_records_refine_regular_parent(self, w, lev, coef):
        mesh = generate_nonobtuse_mesh(sector(*w, 1.0), lev)
        fine = refine_regular(mesh)
        parent, P = fine.parent
        assert parent is mesh
        nv, v = mesh.n_vertices, fine.vertices
        edges = edge_table(mesh.triangles)[0]
        assert P.shape == (fine.n_vertices, nv) == (nv + edges.shape[0], nv)
        assert (P[:nv] != sp.identity(nv)).nnz == 0
        # vertex nv + e is the midpoint of edge e, and its row is 1/2 on both ends
        assert np.array_equal(v[nv:], 0.5 * (v[edges[:, 0]] + v[edges[:, 1]]))
        mids = P[nv:].tocoo()
        assert np.array_equal(mids.row, np.repeat(np.arange(edges.shape[0]), 2))
        assert np.all(mids.data == 0.5)
        assert np.array_equal(np.sort(mids.col.reshape(-1, 2), axis=1), edges)
        # P interpolates linear functions
        c0, c1, c2 = coef
        f = lambda p: c0 + c1 * p[:, 0] + c2 * p[:, 1]
        np.testing.assert_allclose(P @ f(mesh.vertices), f(v), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("lev", range(5))
    def test_prolongation_arrays_match_coo_build(self, lev):
        # P is built straight into CSR; the COO build it replaced is the reference
        mesh = generate_nonobtuse_mesh(REFLEX, lev)
        P = refine_regular(mesh).parent[1]
        nv, edges = mesh.n_vertices, edge_table(mesh.triangles)[0]
        rows = np.concatenate([np.arange(nv), np.repeat(np.arange(nv, nv + edges.shape[0]), 2)])
        cols = np.concatenate([np.arange(nv), edges.ravel()])
        ref = sp.csr_matrix((np.repeat([1.0, 0.5], [nv, edges.size]), (rows, cols)), shape=P.shape)
        for a in ("indptr", "indices", "data"):
            assert getattr(P, a).dtype == getattr(ref, a).dtype
            assert np.array_equal(getattr(P, a), getattr(ref, a))

    def test_twice_refined_polar_mesh_reaches_its_base(self):
        mesh = generate_mesh(sector(-PI / 4, 5 * PI / 4), 0.2, 0.5)
        twice = refine_regular(refine_regular(mesh))
        once = twice.parent[0]
        assert once.parent[0] is mesh and mesh.parent is None

    @pytest.mark.parametrize(
        "w, h, mu", [((-PI / 4, 3 * PI / 4), 0.1, 0.8), ((-0.05, 0.05), 0.02, 1.0), ((-3.0, 3.0), 0.3, 0.5)]
    )
    def test_polar_meshes_have_no_parent(self, w, h, mu):
        assert generate_mesh(sector(*w), h, mu).parent is None

    @pytest.mark.parametrize("w", [(-PI / 4, 3 * PI / 4), (-3 * PI / 4, 2 * PI / 3), (-PI + 0.1, PI - 0.1)])
    def test_level_0_fan_has_no_parent(self, w):
        assert generate_nonobtuse_mesh(sector(*w), 0).parent is None

    def test_hand_built_meshes_have_no_parent(self):
        assert one_triangle([(0.0, 0.0), (1.0, 0.1), (0.5, 1.0)]).parent is None

    def test_replaced_copy_has_no_parent(self):
        fine = refine_regular(generate_nonobtuse_mesh(REFLEX, 1))
        assert fine.parent is not None
        assert dataclasses.replace(fine).parent is None
        assert dataclasses.replace(fine, region=-fine.region).parent is None

    def test_parent_is_not_a_constructor_argument(self):
        mesh = generate_nonobtuse_mesh(REFLEX, 0)
        with pytest.raises(TypeError):
            Mesh(mesh.vertices, mesh.triangles, mesh.region, mesh.boundary, parent=(mesh, None))
        with pytest.raises(ValueError):
            dataclasses.replace(refine_regular(mesh), parent=None)


def radial_chain(mesh):
    """The mesh and its parents, finest first."""
    chain = [mesh]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent[0])
    return chain


class TestRadialLevels:
    """``generate_mesh``'s radial chain: each parent keeps every other layer, counting from the outer one."""

    @settings(max_examples=40, deadline=None)
    @given(
        w=st.sampled_from([
            (-3 * PI / 4, 2 * PI / 3),  # reflex
            (-0.05, 0.1),  # thin
            (-0.3, 2 * PI - 1e-3 - 0.3),  # opening near 2 pi
        ]) | st.tuples(st.floats(-2 * PI + 0.2, -0.01), st.floats(0.01, 2 * PI)).filter(
            lambda t: t[1] - t[0] < 2 * PI
        ),
        h=st.floats(0.03, 0.45),
        mu=st.floats(0.3, 1.0),
        coef=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    )
    def test_levels_and_prolongations(self, w, h, mu, coef):
        dom = sector(*w, 1.0)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(geometry, "RADIAL_LEVELS_VERTICES", 0)
            chain = radial_chain(generate_mesh(dom, h, mu))
        n_layers = math.ceil(1.0 / h)
        n_rays = (chain[0].n_vertices - 1) // n_layers
        for fine, coarse in zip(chain, chain[1:]):
            validate_mesh(coarse, dom)
            n_fine = (fine.n_vertices - 1) // n_rays
            assert coarse.n_vertices == 1 + (n_fine + 1) // 2 * n_rays
            P = fine.parent[1].tocsr()
            assert P.shape == (fine.n_vertices, coarse.n_vertices)
            # a kept vertex is a fine vertex at the same point, and its row is 1 on it alone
            kept = np.arange(n_fine - 1, -1, -2)[::-1]
            rows = np.concatenate([[0], (1 + kept[:, None] * n_rays + np.arange(n_rays)).ravel()])
            assert np.array_equal(fine.vertices[rows], coarse.vertices)
            assert (P[rows] != sp.identity(coarse.n_vertices)).nnz == 0
            # P reproduces every function linear in r, on every ray
            c0, c1 = coef
            r_fine = np.hypot(*fine.vertices.T)
            r_coarse = np.hypot(*coarse.vertices.T)
            np.testing.assert_allclose(P @ (c0 + c1 * r_coarse), c0 + c1 * r_fine, rtol=0.0, atol=1e-14)
        assert chain[-1].n_vertices == 1 + min(n_layers, 2) * n_rays and chain[-1].parent is None

    @pytest.mark.parametrize("h, chained", [(1 / 45, False), (1 / 90, False), (1 / 180, True)])
    def test_recorded_only_above_the_size_constant(self, h, chained):
        mesh = generate_mesh(sector(-PI / 4, 3 * PI / 4), h, 0.8)
        assert (mesh.parent is not None) == chained == (mesh.n_vertices > geometry.RADIAL_LEVELS_VERTICES)
        if chained:  # 180 layers: 90, 45, 23, 12, 6, 3, 2
            assert len(radial_chain(mesh)) == 8

    def test_size_constant_is_a_strict_bound(self, monkeypatch):
        dom = sector(-PI / 4, 3 * PI / 4)
        nv = generate_mesh(dom, 0.1, 0.8).n_vertices
        monkeypatch.setattr(geometry, "RADIAL_LEVELS_VERTICES", nv)
        assert generate_mesh(dom, 0.1, 0.8).parent is None
        monkeypatch.setattr(geometry, "RADIAL_LEVELS_VERTICES", nv - 1)
        assert generate_mesh(dom, 0.1, 0.8).parent is not None

    def test_nonobtuse_base_records_none(self, monkeypatch):
        monkeypatch.setattr(geometry, "RADIAL_LEVELS_VERTICES", 0)
        mesh = generate_nonobtuse_mesh(sector(-PI / 4, 3 * PI / 4), 3)
        chain = radial_chain(mesh)
        # three refinements above the one-layer fan, every vertex of which is on the boundary
        assert len(chain) == 4 and chain[-1].boundary.all()


class TestLayered:
    """``Mesh.layered``: set by ``_polar_mesh`` alone, the way its builders set ``parent``."""

    def test_polar_meshes_and_their_chains_are_layered(self, monkeypatch):
        monkeypatch.setattr(geometry, "RADIAL_LEVELS_VERTICES", 0)
        chain = radial_chain(generate_mesh(sector(-PI / 4, 3 * PI / 4), 0.1, 0.8))
        assert len(chain) == 4 and all(mesh.layered for mesh in chain)  # 10, 5, 3 and 2 layers

    def test_other_meshes_are_not(self):
        base = generate_mesh(sector(-PI / 4, 5 * PI / 4), 0.2, 0.5)
        refined = refine_regular(base)
        assert base.layered and refined.parent[0].layered and not refined.layered
        assert not generate_nonobtuse_mesh(REFLEX, 2).layered
        assert not one_triangle([(0.0, 0.0), (1.0, 0.1), (0.5, 1.0)]).layered
        assert not dataclasses.replace(base).layered

    def test_layered_is_not_a_constructor_argument(self):
        mesh = generate_nonobtuse_mesh(REFLEX, 0)
        assert mesh.layered and "layered" not in repr(mesh)
        with pytest.raises(TypeError):
            Mesh(mesh.vertices, mesh.triangles, mesh.region, mesh.boundary, layered=True)
        with pytest.raises(ValueError):
            dataclasses.replace(mesh, layered=True)


class TestEdgeTable:
    @pytest.mark.parametrize("name,build", TOPOLOGY_MESHES, ids=[m[0] for m in TOPOLOGY_MESHES])
    def test_matches_loop_references(self, name, build):
        mesh = build()
        edges, tri_edges, counts, neighbors = edge_table(mesh.triangles)
        ref = ref_edge_counts(mesh.triangles)
        assert edges.tolist() == sorted(map(list, ref))
        assert counts.tolist() == [ref[k] for k in sorted(ref)]
        assert edges[counts == 1].tolist() == sorted(map(list, ref_boundary_edges(mesh.triangles)))
        assert np.array_equal(neighbors, ref_neighbors(mesh.triangles))
        assert np.array_equal(interface_edges(mesh)[0], ref_interface_edges(mesh.vertices, mesh.triangles))
        # local edge i is the one opposite vertex i
        for i in range(3):
            ends = np.sort(mesh.triangles[:, [(i + 1) % 3, (i + 2) % 3]], axis=1)
            assert np.array_equal(edges[tri_edges[:, i]], ends)

    @pytest.mark.parametrize("lev", range(4))
    def test_refine_regular_matches_loop_reference(self, lev):
        coarse = generate_nonobtuse_mesh(REFLEX, lev)
        fine = refine_regular(coarse)
        vertices, triangles, region, boundary = ref_refine_regular(coarse)
        assert np.array_equal(fine.vertices, vertices)
        assert np.array_equal(fine.triangles, triangles)
        assert np.array_equal(fine.region, region)
        assert np.array_equal(fine.boundary, boundary)
        assert np.array_equal(interface_edges(fine)[0], ref_interface_edges(vertices, triangles))


    @settings(max_examples=40, deadline=None)
    @given(
        w=st.sampled_from([
            (-3 * PI / 4, 2 * PI / 3),  # reflex
            (-0.05, 0.1),  # thin
            (-0.3, 2 * PI - 1e-3 - 0.3),  # opening near 2 pi
            (-PI + 5e-4, PI - 5e-4),
        ]) | st.tuples(st.floats(-2 * PI + 0.2, -0.01), st.floats(0.01, 2 * PI)).filter(
            lambda t: t[1] - t[0] < 2 * PI
        ),
        h=st.floats(0.1, 0.6),
        mu=st.floats(0.3, 1.0),
    )
    def test_polar_meshes_match_loop_references(self, w, h, mu):
        mesh = generate_mesh(sector(*w, 1.0), h, mu)
        edges, _, counts, neighbors = edge_table(mesh.triangles)
        ref = ref_edge_counts(mesh.triangles)
        assert edges.tolist() == sorted(map(list, ref))
        assert counts.tolist() == [ref[k] for k in sorted(ref)]
        assert np.array_equal(neighbors, ref_neighbors(mesh.triangles))


def one_triangle(points, region=1, boundary=(True, True, True)):
    return Mesh(
        np.array(points, dtype=float), np.array([[0, 1, 2]]),
        np.array([region], dtype=np.int8), np.array(boundary),
    )


class TestValidateMeshRejections:
    """One small mesh per rejection; DOM's interface ray is theta = 0."""

    DOM = sector(-PI / 4, 3 * PI / 4, 1.0)
    UPPER = [(0.2, 0.3), (0.4, 0.3), (0.3, 0.5)]  # positively oriented, above the ray

    def rejects(self, mesh, message):
        with pytest.raises(GeometryError, match=re.escape(message)):
            validate_mesh(mesh, self.DOM)

    def test_accepts_the_upper_triangle(self):
        validate_mesh(one_triangle(self.UPPER), self.DOM)

    def test_non_positive_area(self):
        self.rejects(one_triangle(self.UPPER[::-1]), "non-positively-oriented or degenerate")

    def test_edge_on_three_triangles(self):
        # edge (0, 1) has apexes 2 and 3 on its left and 4 on its right
        vertices = np.array(self.UPPER + [(0.3, 0.6), (0.3, 0.2)])
        triangles = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
        mesh = Mesh(vertices, triangles, np.ones(3, dtype=np.int8), np.ones(5, dtype=bool))
        edges, tri_edges, counts, neighbors = edge_table(triangles)
        shared = edges.tolist().index([0, 1])
        assert counts[shared] == 3 and np.all(counts[np.arange(counts.size) != shared] == 1)
        assert np.array_equal(tri_edges[:, 2], [shared] * 3)
        assert np.array_equal(neighbors, -np.ones((3, 3), dtype=np.int64))
        self.rejects(mesh, "edges shared by >2 triangles: [[0, 1]]")

    def test_boundary_edge_with_unflagged_endpoint(self):
        mesh = one_triangle(self.UPPER, boundary=(True, True, False))
        self.rejects(mesh, "boundary edge (0,2) has unflagged endpoint")

    def test_triangle_straddling_the_interface(self):
        self.rejects(one_triangle([(0.5, -0.1), (0.6, 0.1), (0.4, 0.1)]), "1 triangles straddle the interface")

    def test_region_tag_against_wedge_angle_rule(self):
        self.rejects(one_triangle(self.UPPER, region=-1), "region tags disagree with barycenter side")


def edge_table_validate_mesh(mesh, domain):
    """``validate_mesh`` with its conformity checks read from the full ``edge_table``."""
    if not np.all(mesh.areas > 0.0):
        raise GeometryError("mesh contains non-positively-oriented or degenerate triangles")
    edges, _, counts, _ = edge_table(mesh.triangles)
    if np.any(counts > 2):
        raise GeometryError(
            "non-conforming mesh: edges shared by >2 triangles: "
            f"{edges[counts > 2][:5].tolist()}"
        )
    outer = edges[counts == 1]
    unflagged = outer[~(mesh.boundary[outer[:, 0]] & mesh.boundary[outer[:, 1]])]
    if unflagged.size:
        u, v = unflagged[0]
        raise GeometryError(f"boundary edge ({u},{v}) has unflagged endpoint")
    straddles = geometry._straddling(mesh)
    if np.any(straddles):
        raise GeometryError(f"{int(straddles.sum())} triangles straddle the interface")
    bary = mesh.barycenters
    side = wedge_angles(domain.wedge, bary[:, 0], bary[:, 1])
    if not np.array_equal(np.where(side >= 0.0, 1, -1).astype(np.int8), mesh.region):
        raise GeometryError("region tags disagree with barycenter side")


def validation_message(check, mesh, domain):
    with pytest.raises(GeometryError) as info:
        check(mesh, domain)
    return str(info.value)


@st.composite
def valid_meshes(draw):
    """(mesh, domain): polar meshes on reflex, near-2 pi and graded wedges, refined ones and non-obtuse ones."""
    tm, tp = draw(st.sampled_from([
        (-3 * PI / 4, 2 * PI / 3),  # reflex
        (-0.3, 2 * PI - 1e-3 - 0.3),  # opening near 2 pi
        (-PI + 5e-4, PI - 5e-4),
        (-0.05, 0.1),  # thin
    ]) | st.tuples(st.floats(-2 * PI + 0.2, -0.01), st.floats(0.01, 2 * PI)).filter(lambda t: t[1] - t[0] < 2 * PI))
    domain = sector(tm, tp, draw(st.sampled_from([1.0, 1e-6, 1e3])))
    kind = draw(st.sampled_from(["polar", "refined", "nonobtuse"]))
    if kind == "nonobtuse":
        return generate_nonobtuse_mesh(domain, draw(st.integers(0, 3))), domain
    mesh = generate_mesh(domain, domain.radius * draw(st.floats(0.08, 0.5)), draw(st.floats(0.3, 1.0)))
    return (refine_regular(mesh) if kind == "refined" else mesh), domain


class TestConformityFromSortedKeys:
    """``validate_mesh`` counts runs of the sorted edge keys instead of building ``edge_table``."""

    @settings(max_examples=60, deadline=None)
    @given(case=valid_meshes(), pick=st.integers(0, 2**31))
    def test_same_verdicts_as_edge_table_check(self, case, pick):
        mesh, domain = case
        validate_mesh(mesh, domain)
        edge_table_validate_mesh(mesh, domain)
        t = pick % mesh.n_triangles
        doubled = Mesh(
            mesh.vertices, np.vstack([mesh.triangles, mesh.triangles[t]]),
            np.append(mesh.region, mesh.region[t]), mesh.boundary,
        )
        on_boundary = np.flatnonzero(mesh.boundary)
        boundary = mesh.boundary.copy()
        boundary[on_boundary[pick % on_boundary.size]] = False
        unflagged = Mesh(mesh.vertices, mesh.triangles, mesh.region, boundary)
        for bad, start in [(doubled, "non-conforming mesh"), (unflagged, "boundary edge")]:
            message = validation_message(validate_mesh, bad, domain)
            assert message.startswith(start)
            assert message == validation_message(edge_table_validate_mesh, bad, domain)

    def test_builds_no_edge_table(self, monkeypatch):
        mesh, calls = generate_nonobtuse_mesh(REFLEX, 3), []
        monkeypatch.setattr(geometry, "edge_table", lambda *a: calls.append(a))
        validate_mesh(mesh, REFLEX)
        assert calls == []

    def test_peak_below_edge_table_check(self):
        from wedgelab.acceptance import WITNESS_MU, Workbench

        domain = Workbench().problem.domain
        mesh = generate_mesh(domain, 1 / 90, WITNESS_MU)  # its areas and barycenters are cached
        peaks = []
        for check in (validate_mesh, edge_table_validate_mesh):
            gc.collect()
            tracemalloc.start()
            try:
                check(mesh, domain)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.7 * peaks[1]


# wedges for the interface references: reflex, near-2pi and near-zero openings
INTERFACE_WEDGES = [
    sector(-PI / 4, 3 * PI / 4, 1.0),
    sector(-PI / 4, 5 * PI / 4, 1.0),
    sector(-3 * PI / 4, 2 * PI / 3, 1.0),
    sector(-0.3, 2 * PI - 1e-3 - 0.3, 1.0),
    sector(-PI + 5e-4, PI - 5e-4, 1.0),
    sector(-0.05, 0.1, 1.0),
]


def test_straddling_check_peak():
    # per-vertex booleans gathered per triangle; the float vertex columns it read peaked at 10.5 MiB here
    from wedgelab.acceptance import WITNESS_MU, Workbench

    mesh = generate_mesh(Workbench().problem.domain, 1 / 180, WITNESS_MU)
    gc.collect()
    tracemalloc.start()
    try:
        assert not geometry._straddling(mesh).any()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


class TestInterfaceEdges:
    """``interface_edges`` against the on-ray test and the ray indices of the polar mesh."""

    @pytest.mark.parametrize("dom", INTERFACE_WEDGES)
    @pytest.mark.parametrize("h,mu", [(0.3, 1.0), (0.12, 0.7), (0.07, 0.5)])
    def test_polar_meshes_match_both_references(self, dom, h, mu):
        mesh = generate_mesh(dom, h, mu)
        w = dom.wedge
        n_minus, n_plus = max(1, math.ceil(-w.theta_minus / h)), max(1, math.ceil(w.theta_plus / h))
        iface = ref_polar_topology(math.ceil(1 / h), n_minus + n_plus + 1, n_minus)[3]
        pairs, upper, lower = interface_edges(mesh)
        assert np.array_equal(pairs, iface)
        assert np.array_equal(pairs, ref_interface_edges(mesh.vertices, mesh.triangles))
        self.check_sides(mesh, pairs, upper, lower)

    @pytest.mark.parametrize("dom", INTERFACE_WEDGES)
    def test_refined_meshes_match_on_ray_reference(self, dom):
        mesh = generate_nonobtuse_mesh(dom, 0)
        for level in range(7):
            if level:
                mesh = refine_regular(mesh)
            pairs, upper, lower = interface_edges(mesh)
            assert np.array_equal(pairs, ref_interface_edges(mesh.vertices, mesh.triangles))
            self.check_sides(mesh, pairs, upper, lower)

    @staticmethod
    def check_sides(mesh, pairs, upper, lower):
        assert np.all(mesh.region[upper] == 1) and np.all(mesh.region[lower] == -1)
        for (u, v), tu, tl in zip(pairs, upper, lower):
            assert {u, v} <= set(mesh.triangles[tu]) and {u, v} <= set(mesh.triangles[tl])

    def test_one_sided_mesh_has_none(self):
        mesh = Mesh(
            np.array([[0.0, 0.1], [1.0, 0.1], [0.0, 1.0]]), np.array([[0, 1, 2]]),
            np.array([1], dtype=np.int8), np.ones(3, dtype=bool),
        )
        pairs, upper, lower = interface_edges(mesh)
        assert pairs.shape == (0, 2) and upper.size == 0 and lower.size == 0


@st.composite
def element_meshes(draw):
    """Generated, refined and non-obtuse meshes, some turned off the interface.

    The wedges include reflex ones, openings near 2 pi and sides near +-pi; the
    radius is 1, 1e-6 (so h is tiny) or 1e3, and mu grades the polar meshes.  A
    turned copy has triangles that straddle the positive x-axis.
    """
    tm, tp = draw(st.one_of(
        st.tuples(st.floats(-PI + 1e-9, -1e-3), st.floats(1e-3, PI - 1e-9)),
        st.sampled_from([
            (-3 * PI / 4, 2 * PI / 3),
            (-PI / 4, 3 * PI / 2),
            (-1e-3, 2 * PI - 2e-3),
            (-(2 * PI - 2e-3), 1e-3),
            (-(PI - 1e-9), PI - 1e-9),
        ]),
    ))
    radius = draw(st.sampled_from([1.0, 1e-6, 1e3]))
    domain = sector(tm, tp, radius)
    kind = draw(st.sampled_from(["polar", "refined", "nonobtuse"]))
    if kind == "nonobtuse":
        mesh = generate_nonobtuse_mesh(domain, draw(st.integers(0, 3)))
    else:
        mesh = generate_mesh(domain, radius * draw(st.floats(0.06, 0.5)), draw(st.floats(0.2, 1.0)))
        if kind == "refined":
            mesh = refine_regular(mesh)
    turn = draw(st.sampled_from([0.0, 1e-3, 0.4]))
    if turn:
        c, s = math.cos(turn), math.sin(turn)
        mesh = Mesh(mesh.vertices @ np.array([[c, s], [-s, c]]), mesh.triangles, mesh.region, mesh.boundary)
    return mesh


class TestMeshRecord:
    def test_fields_cannot_be_assigned(self):
        mesh = generate_mesh(sector(-PI / 4, PI / 2, 1.0), 0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.vertices = mesh.vertices.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.interface_edges = np.zeros((0, 2), dtype=np.int64)

    @pytest.mark.parametrize("name", ["areas", "barycenters", "basis_gradients"])
    def test_derived_arrays_cached_and_read_only(self, name):
        mesh = generate_mesh(sector(-PI / 4, PI / 2, 1.0), 0.3)
        arr = getattr(mesh, name)
        assert getattr(mesh, name) is arr
        assert arr.shape[0] == mesh.n_triangles
        with pytest.raises(ValueError):
            arr[0] = 0.0

    @settings(max_examples=60, deadline=None)
    @given(mesh=element_meshes(), seed=st.integers(0, 2**32 - 1))
    @example(mesh=generate_mesh(sector(-3 * PI / 4, 2 * PI / 3, 1.0), 0.2, 0.7), seed=0)
    def test_derived_arrays_match_direct_formulas(self, mesh, seed):
        """The vertex-column kernels equal the (nt, 3, 2) gather formulas they replaced."""
        v, tri = mesh.vertices, mesh.triangles
        pts = v[tri]
        e1, e2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
        areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        assert np.array_equal(mesh.areas, areas)
        assert np.array_equal(mesh.barycenters, pts.mean(axis=1))
        # grad(lambda_i): the edge from vertex i + 1 to vertex i + 2 turned a quarter
        # counterclockwise, over 2 * area
        nxt, prv = v[tri[:, [1, 2, 0]]], v[tri[:, [2, 0, 1]]]
        grads = np.stack([nxt[..., 1] - prv[..., 1], prv[..., 0] - nxt[..., 0]], axis=-1)
        assert np.array_equal(mesh.basis_gradients, grads / (2 * areas)[:, None, None])

        mids = pts + nxt  # the midpoints of the edges 01, 12, 20
        mids *= 0.5
        mx, my = fem._edge_midpoints(v, tri)
        assert np.array_equal(mx, mids[..., 0]) and np.array_equal(my, mids[..., 1])

        values = np.random.default_rng(seed).standard_normal(mesh.n_vertices)
        fs = fem.FemSolution(mesh, values, fem.element_gradients(mesh, values), diagnostics=None)
        assert np.array_equal(fem.solution_field(fs).values, values[tri].mean(axis=1))
        spokes = pts - pts.mean(axis=1)[:, None, :]
        far = float(np.hypot(spokes[..., 0], spokes[..., 1]).max())
        assert analysis.P1Evaluator(fs).reach == far * (1.0 + 4.0 * analysis.LOCATE_TOL)

        eps = 1e-12 * (float(np.max(np.abs(v))) or 1.0)
        x, y = v[:, 0][tri], v[:, 1][tri]
        straddles = np.any(y > eps, axis=1) & np.any(y < -eps, axis=1) & np.any(x > eps, axis=1)
        assert np.array_equal(geometry._straddling(mesh), straddles)
        assert max_interior_angle(mesh) == ref_max_interior_angle(pts)


_NEAR_AXIS = st.floats(-1e-9, 1e-9)
ANGLES = st.one_of(
    st.floats(-PI, PI),
    _NEAR_AXIS,
    _NEAR_AXIS.map(lambda t: PI - abs(t)),
    _NEAR_AXIS.map(lambda t: -PI + abs(t)),
)
POINTS = st.one_of(
    st.tuples(st.floats(1e-6, 10.0), ANGLES).map(
        lambda p: (p[0] * math.cos(p[1]), p[0] * math.sin(p[1]))
    ),
    # the origin (with signed zeros) and points on the axes
    st.sampled_from(
        [(0.0, 0.0), (-0.0, -0.0), (1.0, 0.0), (-1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (0.0, -1.0)]
    ),
)


@st.composite
def wedges(draw):
    tm = draw(st.floats(-2 * PI + 1e-5, -1e-6))
    tp = draw(st.floats(1e-6, 2 * PI + tm - 1e-9))
    return make_wedge(tm, tp)


WEDGES = st.one_of(
    wedges(),
    st.sampled_from([
        (-PI / 4, 3 * PI / 4),
        (-3 * PI / 4, 2 * PI / 3),  # reflex
        (-1e-3, 2 * PI - 2e-3),  # openings near 2 pi
        (-(2 * PI - 2e-3), 1e-3),
        (-PI, PI - 1e-9),
    ]).map(lambda t: make_wedge(*t)),
)


def in_place_wedge_angles(w, x, y):
    """``wedge_angles`` trying both 2 pi shifts on every point, in place (the version before the inside skip)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.arctan2(y, x, out=np.empty(np.broadcast_shapes(x.shape, y.shape)))
    np.copyto(theta, 0.0, where=(x == 0.0) & (y == 0.0))
    dist = geometry._interval_dist(theta, w.theta_minus, w.theta_plus, np.empty_like(theta))
    cand, cand_dist = np.empty_like(theta), np.empty_like(theta)
    for shift in (-2 * PI, 2 * PI):
        np.add(theta, shift, out=cand)
        geometry._interval_dist(cand, w.theta_minus, w.theta_plus, cand_dist)
        closer = cand_dist < dist
        np.copyto(theta, cand, where=closer)
        np.copyto(dist, cand_dist, where=closer)
    return theta


@st.composite
def wedge_point_sets(draw):
    """A wedge (reflex and near-2 pi ones included) and points anywhere: inside, outside, on its walls, near them."""
    w = draw(WEDGES)
    wall = st.sampled_from([w.theta_minus, w.theta_plus])
    near_wall = st.tuples(wall, st.floats(-1e-6, 1e-6)).map(sum)
    angle = st.one_of(ANGLES, wall, near_wall)
    on_ray = st.tuples(st.floats(1e-6, 10.0), angle).map(lambda p: (p[0] * math.cos(p[1]), p[0] * math.sin(p[1])))
    return w, draw(st.lists(st.one_of(POINTS, on_ray), min_size=1, max_size=30))


class TestWedgeAngles:
    @settings(max_examples=300, deadline=None)
    @given(w=WEDGES, pts=st.lists(POINTS, min_size=1, max_size=20))
    def test_matches_scalar_closest_branch(self, w, pts):
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        ref = np.array([ref_wedge_angle(w, a, b) for a, b in pts])
        np.testing.assert_allclose(wedge_angles(w, x, y), ref, rtol=0.0, atol=4e-15)

    @settings(max_examples=300, deadline=None)
    @given(case=wedge_point_sets())
    @example(case=(make_wedge(-PI / 4, 5 * PI / 4), [(0.0, 0.0), (-0.0, -0.0), (-1.0, -0.0), (-1.0, -1e-9)]))
    def test_matches_in_place_version_bit_for_bit(self, case):
        # int64 views, so a signed zero that changes sign is a difference
        w, pts = case
        x, y = np.array(pts).T
        for shape in (x.shape, (len(pts), 1)):
            got, ref = wedge_angles(w, x.reshape(shape), y.reshape(shape)), in_place_wedge_angles(w, x, y)
            assert got.shape == shape
            assert np.array_equal(got.reshape(-1).view(np.int64), ref.view(np.int64))
        got = wedge_angles(w, *pts[0])
        assert got.shape == () and got.view(np.int64) == ref[0].view(np.int64)

