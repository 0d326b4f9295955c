"""Planar sector domains split by a straight interface ray.

The domain is the sector ``theta_minus < theta < theta_plus`` of radius R
about a corner at the origin.  The ray ``theta = 0`` divides it into an
upper subdomain (tagged ``+1``) and a lower one (tagged ``-1``); the corner
is the single edge point where interface and boundary meet.  A point is
upper when ``wedge_angles(w, x, y) >= 0``; on wedges that reach past +-pi
some upper points lie below the x-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

_TWO_PI = 2.0 * math.pi
# generate_mesh records its radial hierarchy (Mesh.parent), which gives the
# solve a V-cycle, only on meshes with more vertices than this.  Measured on
# the witness meshes (mu = 0.8; generate_mesh plus solve_cg, best of 5, one
# BLAS thread, 2-core x86, three runs): line-CG against the V-cycle
# 7.0-7.1 / 14.8-15.1 ms at 6,481 vertices (1/45), 41.9-42.7 / 38.5-38.8 ms
# at 25,651 (1/90), 48.3-49.3 / 42.6-43.3 ms at 28,501 (1/95), 95.6-97.4 /
# 66.1-67.9 ms at 45,481 (1/120), 317-320 / 150-158 ms at 102,241 (1/180).
# The V-cycle wins from 1/90 on; a value below 25,651 would move the 1/90
# witness solve from line-CG to the V-cycle.
RADIAL_LEVELS_VERTICES = 30_000


class GeometryError(ValueError):
    """Malformed wedge, sector, or meshing request."""


@dataclass(frozen=True)
class Wedge:
    """Open sector ``theta_minus < theta < theta_plus`` about the origin."""

    theta_minus: float
    theta_plus: float

    def __post_init__(self):
        if not (self.theta_minus < 0.0 < self.theta_plus):
            raise GeometryError(
                "wedge requires theta_minus < 0 < theta_plus, got "
                f"({self.theta_minus}, {self.theta_plus})"
            )
        if not (self.theta_plus - self.theta_minus < _TWO_PI):
            raise GeometryError("wedge opening must be strictly less than 2*pi")

    @property
    def opening(self) -> float:
        return self.theta_plus - self.theta_minus


def make_wedge(theta_minus: float, theta_plus: float) -> Wedge:
    """Validated wedge constructor."""
    return Wedge(float(theta_minus), float(theta_plus))


@dataclass(frozen=True)
class DomainSpec:
    """Bounded sector: wedge cut to radius ``radius``, corner at the origin."""

    wedge: Wedge
    radius: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise GeometryError(f"sector radius must be positive and finite, got {self.radius}")


def sector(theta_minus: float, theta_plus: float, radius: float = 1.0) -> DomainSpec:
    return DomainSpec(make_wedge(theta_minus, theta_plus), float(radius))


def wedge_angles(w: Wedge, x, y):
    """Angles of the points (x, y) mapped into the branch closest to [theta_minus, theta_plus].

    arctan2 returns values in (-pi, pi]; wedges may extend beyond pi, so an
    angle moves to theta - 2*pi or theta + 2*pi (tried in that order) only
    when that is strictly closer to the wedge range.  The origin has angle 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.arctan2(y, x, out=np.empty(np.broadcast_shapes(x.shape, y.shape)))
    np.copyto(theta, 0.0, where=(x == 0.0) & (y == 0.0))
    # a point inside [theta_minus, theta_plus] is at distance 0, so no shift
    # is strictly closer: only the points outside are tried
    flat = theta.reshape(-1)
    outside = np.flatnonzero((flat < w.theta_minus) | (flat > w.theta_plus))
    if outside.size:
        t = flat[outside]
        dist = _interval_dist(t, w.theta_minus, w.theta_plus, np.empty_like(t))
        cand, cand_dist = np.empty_like(t), np.empty_like(t)
        for shift in (-_TWO_PI, _TWO_PI):
            np.add(t, shift, out=cand)
            _interval_dist(cand, w.theta_minus, w.theta_plus, cand_dist)
            closer = cand_dist < dist
            np.copyto(t, cand, where=closer)
            np.copyto(dist, cand_dist, where=closer)
        flat[outside] = t
    return theta


def _interval_dist(t, lo: float, hi: float, out):
    """max(lo - t, t - hi, 0) written into ``out``."""
    np.subtract(lo, t, out=out)
    np.maximum(out, t - hi, out=out)
    return np.maximum(out, 0.0, out=out)


def delta_dist_arr(points: np.ndarray, edge_point=(0.0, 0.0)) -> np.ndarray:
    """Distance of each row of an (n, 2) array to the edge point, capped at 1."""
    pts = np.asarray(points, dtype=float)
    d = np.hypot(pts[:, 0] - edge_point[0], pts[:, 1] - edge_point[1])
    return np.minimum(d, 1.0)


# ---------------------------------------------------------------------------
# meshes


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of the sector, fitted to the interface ray.

    ``region`` is +1 for triangles in the upper subdomain, -1 below;
    ``boundary`` flags vertices on the domain boundary.  Derived element arrays
    are computed on first use, once per mesh, and are read-only; the interface
    edges follow from the tags (``interface_edges``).  ``parent`` is (coarse
    mesh, vertex prolongation) on a mesh that ``refine_regular`` builds and on a
    ``generate_mesh`` mesh above ``RADIAL_LEVELS_VERTICES`` vertices (its radial
    chain); any other mesh has ``None``.  ``layered`` is True on the polar meshes
    (``_polar_mesh``), numbered along each circular layer.  ``fem._preconditioner``
    states how a solve uses both.
    """

    vertices: np.ndarray  # (nv, 2) float64
    triangles: np.ndarray  # (nt, 3) int, positively oriented
    region: np.ndarray  # (nt,) int8, +1 / -1
    boundary: np.ndarray  # (nv,) bool
    parent: tuple[Mesh, sp.csr_matrix] | None = field(default=None, init=False, repr=False, compare=False)
    layered: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def vertex_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y of each element's vertices, each (3, nt): row i holds vertex i.

        The element kernels do their arithmetic on these rows; their sums run in
        the order of a reduction over the (nt, 3, 2) gather ``vertices[triangles]``,
        so their arrays equal its formulas bit for bit, except that a sum of three
        negative zeros keeps its sign.
        """
        tri = self.triangles.T
        return self.vertices[:, 0][tri], self.vertices[:, 1][tri]

    @cached_property
    def areas(self) -> np.ndarray:
        """(nt,) signed areas, positive for positively oriented triangles."""
        x, y = self.vertex_columns()
        return _read_only(0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])))

    @cached_property
    def barycenters(self) -> np.ndarray:
        x, y = self.vertex_columns()
        for c in (x, y):  # row 0 becomes the mean, in place, to keep the peak at the gather's
            c[0] += c[1]
            c[0] += c[2]
            c[0] /= 3
        return _read_only(np.column_stack([x[0], y[0]]))

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        """(nt, 3, 2) constant gradients of each element's three barycentric basis functions."""
        # basis i: the edge vector from vertex i + 1 to vertex i + 2, turned a quarter
        # counterclockwise, over twice the area
        x, y = self.vertex_columns()
        twice = 2 * self.areas
        grads = np.empty((self.n_triangles, 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            np.divide(y[j] - y[k], twice, out=grads[:, i, 0])
            np.divide(x[k] - x[j], twice, out=grads[:, i, 1])
        return _read_only(grads)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def edge_table(triangles: np.ndarray):
    """Unique edges of a triangulation and the triangles on each.

    Returns ``(edges, tri_edges, counts, neighbors)``:

    - ``edges`` (ne, 2): vertex pairs ``lo < hi`` in lexicographic order;
    - ``tri_edges`` (nt, 3): edge ids, entry i being the edge opposite vertex i;
    - ``counts`` (ne,): number of triangles on each edge (1 on the boundary,
      2 inside a conforming mesh);
    - ``neighbors`` (nt, 3): the triangle across edge i, or -1 when that edge
      does not have exactly two triangles.
    """
    key, nv = _edge_keys(triangles)
    # after one stable sort the slots of each edge are adjacent, in slot order
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.concatenate([[True], key[1:] != key[:-1]])
    starts = np.flatnonzero(new)
    edges = np.column_stack(np.divmod(key[starts], nv))
    del key
    counts = np.diff(starts, append=order.size)
    tri_edges = np.empty_like(order)
    tri_edges[order] = np.cumsum(new) - 1
    neighbors = np.full_like(order, -1)
    pair = starts[counts == 2]
    neighbors[order[pair]] = order[pair + 1] // 3
    neighbors[order[pair + 1]] = order[pair] // 3
    return edges, tri_edges.reshape(-1, 3), counts, neighbors.reshape(-1, 3)


def _edge_keys(triangles: np.ndarray) -> tuple[np.ndarray, int]:
    """(3 nt,) int64 key of each slot and the vertex count nv: slot 3t + i holds edge i of triangle t.

    Edge i is the one opposite vertex i (the local edges 12, 20, 01), keyed
    lo * nv + hi for its vertices lo < hi, so the keys sort as the edges do
    lexicographically.
    """
    tri = np.asarray(triangles, dtype=np.int64)
    nv = int(tri.max()) + 1
    key = np.empty_like(tri)
    for i in range(3):  # one column at a time: no (nt, 3) copies of the ends
        u, v = tri[:, (i + 1) % 3], tri[:, (i + 2) % 3]
        np.minimum(u, v, out=key[:, i])
        key[:, i] *= nv
        key[:, i] += np.maximum(u, v)
    return key.ravel(), nv


def interface_edges(mesh: Mesh):
    """The edges between an upper and a lower triangle: ``(pairs, upper, lower)``.

    ``pairs`` (ne, 2) are their vertex pairs ``lo < hi`` in edge-id order
    (lexicographic, as in ``edge_table``); ``upper`` and ``lower`` are the
    triangles on each edge tagged +1 and -1.
    """
    # both ends of an interface edge lie on an upper and on a lower triangle, so
    # the triangles with such a vertex hold every interface edge and both its
    # triangles; the edge table of those alone lists the interface edges in the
    # same lexicographic order
    tri, region = mesh.triangles, mesh.region
    sides = np.zeros((2, mesh.n_vertices), dtype=bool)
    sides[0, tri[region > 0]] = True
    sides[1, tri[region < 0]] = True
    both = (sides[0] & sides[1])[tri.T]
    near = np.flatnonzero(both[0] | both[1] | both[2])
    if near.size == 0:
        return np.zeros((0, 2), dtype=np.int64), near, near
    edges, tri_edges, _, neighbors = edge_table(tri[near])
    region = region[near]
    cross = (neighbors >= 0) & (region[:, None] > 0) & (region[neighbors] < 0)
    upper, slot = np.nonzero(cross)
    order = np.argsort(tri_edges[upper, slot])
    upper, slot = upper[order], slot[order]
    return edges[tri_edges[upper, slot]], near[upper], near[neighbors[upper, slot]]


def validate_mesh(mesh: Mesh, domain: DomainSpec) -> None:
    """Check orientation, conformity, interface fit, and tag consistency."""
    if not np.all(mesh.areas > 0.0):
        raise GeometryError("mesh contains non-positively-oriented or degenerate triangles")

    # conformity from the runs of the sorted edge keys: a run's length is its
    # edge's triangle count, and the keys sort as the edges do lexicographically
    key, nv = _edge_keys(mesh.triangles)
    key.sort()
    new = np.empty(key.size, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    del new
    counts = np.diff(starts, append=key.size)
    shared = key[starts[counts > 2][:5]]
    if shared.size:
        raise GeometryError(
            "non-conforming mesh: edges shared by >2 triangles: "
            f"{np.column_stack(np.divmod(shared, nv)).tolist()}"
        )
    lo, hi = np.divmod(key[starts[counts == 1]], nv)
    del key, starts, counts  # freed before the straddling check's temporaries
    unflagged = np.flatnonzero(~(mesh.boundary[lo] & mesh.boundary[hi]))
    if unflagged.size:
        u, v = lo[unflagged[0]], hi[unflagged[0]]
        raise GeometryError(f"boundary edge ({u},{v}) has unflagged endpoint")

    straddles = _straddling(mesh)
    if np.any(straddles):
        raise GeometryError(f"{int(straddles.sum())} triangles straddle the interface")

    bary = mesh.barycenters
    side = wedge_angles(domain.wedge, bary[:, 0], bary[:, 1])
    sign = np.where(side >= 0.0, 1, -1)
    if not np.array_equal(sign.astype(np.int8), mesh.region):
        raise GeometryError("region tags disagree with barycenter side")


def _straddling(mesh: Mesh) -> np.ndarray:
    """(nt,) mask of the triangles that straddle theta = 0, the positive x-axis.

    Such a triangle has a vertex above the axis, one below it and one right of
    the corner, each by more than 1e-12 of the mesh's largest coordinate.
    """
    v = mesh.vertices
    eps = 1e-12 * (float(np.max(np.abs(v))) or 1.0)
    tri = mesh.triangles.T
    # each test as one boolean per vertex, gathered a row of tri at a time
    above, below, right = (f[tri[0]] | f[tri[1]] | f[tri[2]] for f in (v[:, 1] > eps, v[:, 1] < -eps, v[:, 0] > eps))
    return above & below & right


def max_interior_angle(mesh: Mesh) -> float:
    """Largest interior angle over all triangles, in radians."""
    x, y = mesh.vertex_columns()
    worst = 0.0
    for i in range(3):  # one vertex at a time, to keep the peak at the gather's
        j, k = (i + 1) % 3, (i + 2) % 3
        ux, uy, vx, vy = x[j] - x[i], y[j] - y[i], x[k] - x[i], y[k] - y[i]
        cosang = (ux * vx + uy * vy) / (np.sqrt(ux * ux + uy * uy) * np.sqrt(vx * vx + vy * vy))
        worst = max(worst, float(np.arccos(np.clip(cosang, -1.0, 1.0)).max()))
    return worst


def generate_mesh(domain: DomainSpec, h: float, mu: float = 1.0) -> Mesh:
    """Polar tensor mesh with radial grading toward the corner.

    Radial node layers sit at ``r_i = R * (i/N)^(1/mu)`` (mu = 1 is
    quasi-uniform); the rays theta = theta_minus, 0, theta_plus are mesh
    lines, so no triangle straddles the interface.  The outer arc is
    approximated by chords of length <= h.  A mesh with more than
    ``RADIAL_LEVELS_VERTICES`` vertices records its radial hierarchy as its
    ``parent`` chain (``_record_radial_levels``).
    """
    R = domain.radius
    w = domain.wedge
    if not (0.0 < h < R):
        raise GeometryError(f"target edge length must satisfy 0 < h < R, got {h}")
    if not (0.0 < mu <= 1.0):
        raise GeometryError(f"grading exponent must lie in (0, 1], got {mu}")
    n_layers = math.ceil(R / h)
    if n_layers < 2:
        raise GeometryError("h too coarse to resolve the sector (fewer than 2 layers)")
    n_minus = max(1, math.ceil(-w.theta_minus * R / h))
    n_plus = max(1, math.ceil(w.theta_plus * R / h))
    layers = R * (np.arange(1, n_layers + 1) / n_layers) ** (1.0 / mu)
    mesh = _polar_mesh(w, layers, n_minus, n_plus)
    validate_mesh(mesh, domain)
    if mesh.n_vertices > RADIAL_LEVELS_VERTICES:
        _record_radial_levels(mesh, w, layers, n_minus, n_plus)
    return mesh


def _record_radial_levels(mesh: Mesh, w: Wedge, layers: np.ndarray, n_minus: int, n_plus: int) -> None:
    """Set ``parent`` down a chain of polar meshes, each on every other layer of the last.

    Each step keeps the outer layer and every other layer inward of it, and
    the chain ends on a 2-layer mesh: its one free layer makes its operator
    tridiagonal, so its line solve is exact.
    """
    while layers.size > 2:
        kept = np.arange((layers.size - 1) % 2, layers.size, 2)
        coarse = _polar_mesh(w, layers[kept], n_minus, n_plus)
        object.__setattr__(mesh, "parent", (coarse, _radial_prolongation(layers, n_minus + n_plus + 1)))
        mesh, layers = coarse, layers[kept]


def _radial_prolongation(layers: np.ndarray, n_rays: int) -> sp.csr_matrix:
    """(fine, coarse) vertex prolongation from the layers kept by ``_record_radial_levels``.

    It is 1 on the corner and on each kept vertex.  A dropped layer is linear
    in r between the kept layers on either side, or between the corner and
    the innermost kept layer, with the same two weights on every ray.
    """
    n = layers.size
    layer = np.arange(n)
    dropped = layer % 2 != (n - 1) % 2
    d = np.flatnonzero(dropped)
    r = np.concatenate([[0.0], layers])  # r[i + 1] is layer i, r[0] the corner
    t = (r[d + 1] - r[d]) / (r[d + 2] - r[d])
    # one entry per ray for each layer's outer kept neighbour (itself when kept)
    # and for each dropped layer's inner one, as coarse layers; -1 is the corner
    outer = (layer + dropped - (n - 1) % 2) // 2
    fine_layer = np.concatenate([layer, d])
    coarse_layer = np.concatenate([outer, outer[d] - 1])[:, None]
    weight = np.concatenate([np.where(dropped, 0.0, 1.0), 1.0 - t])
    weight[d] = t
    ray = np.arange(n_rays)
    rows = np.append(0, 1 + fine_layer[:, None] * n_rays + ray)
    cols = np.append(0, np.where(coarse_layer < 0, 0, 1 + coarse_layer * n_rays + ray))
    data = np.append(1.0, np.repeat(weight, n_rays))
    return sp.csr_matrix((data, (rows, cols)), shape=(1 + n * n_rays, 1 + (n + 1) // 2 * n_rays))


def _polar_mesh(w: Wedge, layers: np.ndarray, n_minus: int, n_plus: int) -> Mesh:
    """Tensor mesh on circular layers and on n_minus + n_plus + 1 rays.

    The rays split [theta_minus, 0] and [0, theta_plus] evenly.  Vertex 0 is
    the corner and vertex 1 + i * n_rays + j lies on layer i, ray j; the
    first layer is a fan about the corner, each further layer a band of
    quadrilaterals, each cut along the diagonal from its inner vertex on
    ray j to its outer vertex on ray j + 1.  The mesh is ``layered``.
    """
    thetas = np.concatenate(
        [
            np.linspace(w.theta_minus, 0.0, n_minus + 1)[:-1],
            np.linspace(0.0, w.theta_plus, n_plus + 1),
        ]
    )
    n_rays = thetas.size
    rr = np.repeat(layers, n_rays)
    tt = np.tile(thetas, layers.size)
    ring = np.column_stack([rr * np.cos(tt), rr * np.sin(tt)])
    vertices = np.vstack([[0.0, 0.0], ring])
    ids = 1 + np.arange(layers.size * n_rays).reshape(layers.size, n_rays)

    fan = np.column_stack([np.zeros(n_rays - 1, dtype=np.int64), ids[0, :-1], ids[0, 1:]])
    a, b = ids[:-1, :-1], ids[:-1, 1:]
    c, d = ids[1:, :-1], ids[1:, 1:]
    bands = np.stack([a, c, d, a, d, b], axis=-1).reshape(-1, 3)
    tag = np.where(np.arange(n_rays - 1) >= n_minus, 1, -1).astype(np.int8)

    boundary = np.zeros(vertices.shape[0], dtype=bool)
    boundary[0] = True
    boundary[ids[:, [0, -1]]] = True
    boundary[ids[-1]] = True

    mesh = Mesh(
        vertices=vertices,
        triangles=np.vstack([fan, bands]),
        region=np.concatenate([tag, np.tile(np.repeat(tag, 2), layers.size - 1)]),
        boundary=boundary,
    )
    object.__setattr__(mesh, "layered", True)
    return mesh


def refine_regular(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children via edge midpoints.

    The parent's vertices keep their numbers, and vertex ``mesh.n_vertices + e``
    is the midpoint of edge ``e`` of ``edge_table``.  The child's ``parent`` is
    ``(mesh, P)``, P the sparse (child, parent) vertex prolongation: 1 on each
    parent vertex, 1/2 on both ends of each midpoint.
    """
    nv = mesh.n_vertices
    edges, tri_edges, counts, _ = edge_table(mesh.triangles)
    new_pts = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, new_pts])

    a, b, c = mesh.triangles.T
    mbc, mca, mab = (nv + tri_edges).T
    children = [a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca]
    triangles = np.stack(children, axis=1).reshape(-1, 3)

    child = Mesh(vertices, triangles, np.repeat(mesh.region, 4), np.concatenate([mesh.boundary, counts == 1]))
    # the rows in order: one entry per parent vertex, then a midpoint's two ends, sorted as lo < hi
    indptr = np.concatenate([np.arange(nv), nv + 2 * np.arange(edges.shape[0] + 1)])
    indices = np.concatenate([np.arange(nv), edges.ravel()])
    P = sp.csr_matrix((np.repeat([1.0, 0.5], [nv, edges.size]), indices, indptr), shape=(vertices.shape[0], nv))
    object.__setattr__(child, "parent", (mesh, P))
    return child


def generate_nonobtuse_mesh(domain: DomainSpec, levels: int = 3) -> Mesh:
    """Quasi-uniform mesh with no obtuse interior angle.

    Start from a fan of at-most-right-angled sectors about the corner and
    refine regularly; children are congruent to their parents, so the
    non-obtuseness of the coarse fan is preserved exactly.  The boundary is
    the coarse polygon (chords are not re-projected onto the arc).
    """
    if levels < 0:
        raise GeometryError("refinement level count must be nonnegative")
    w = domain.wedge
    n_minus = max(1, math.ceil(-w.theta_minus / (0.5 * math.pi)))
    n_plus = max(1, math.ceil(w.theta_plus / (0.5 * math.pi)))
    mesh = _polar_mesh(w, np.array([domain.radius]), n_minus, n_plus)
    for _ in range(levels):
        mesh = refine_regular(mesh)
    validate_mesh(mesh, domain)
    return mesh

