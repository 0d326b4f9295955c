import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from wedgelab.analysis import default_rays
from wedgelab.exact_solutions import build_dirichlet_example, eval_separable_xy, grad_separable_xy
from wedgelab.geometry import make_wedge
from wedgelab.norms import (
    PAIR_DIST_FLOOR,
    NormEstimateError,
    NormParams,
    SampledField,
    plain_column_norms,
    plain_norm,
    read_sampled_field_csv,
    weighted_norm,
    weighted_seminorm_k0,
    weighted_seminorm_kalpha,
    write_sampled_field_csv,
    _CHUNK,
    _LEAF,
    _PairIndex,
    _all_pairs_scan,
    _pair_scan,
    _quotients,
    _scan_args,
)

PI = math.pi


def ray_cloud(n=2000, r_min=1e-3, include_origin=False):
    r = np.geomspace(r_min, 1.0, n)
    if include_origin:
        r = np.concatenate([[0.0], r])
    return r, np.column_stack([r, np.zeros_like(r)])


def power_field(gamma, n=2000, r_min=1e-3, include_origin=False):
    r, pts = ray_cloud(n, r_min, include_origin)
    vals = r**gamma
    with np.errstate(divide="ignore"):
        gr = np.where(r > 0, gamma * r ** (gamma - 1.0), 0.0)
    grads = np.column_stack([gr, np.zeros_like(r)])
    return SampledField(pts, vals, grads)


def disk_cloud(n, seed=0, radius=1.0):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(-PI, PI, n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def kdtree_node_table(tree):
    """Each node's (start, end) range of ``tree.indices``, breadth first, read from ``cKDTree``'s node objects.

    The reference the pair index's nodes are checked against.
    """
    nodes = [tree.tree]
    for node in nodes:  # the list grows while it is walked
        if node.lesser is not None:
            nodes += [node.lesser, node.greater]
    return np.array([(node.start_idx, node.end_idx) for node in nodes])


def polar_grid():
    """The 24 x 33 polar grid that ``wedgelab exact --field-csv`` samples for the wedge (-pi/4, pi/4)."""
    R, T = np.meshgrid(np.linspace(0.05, 1.0, 24), default_rays(make_wedge(-PI / 4, PI / 4), 33), indexing="ij")
    return np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])


def scan_equals_all_pairs(index):
    """Value and argmax of a two- and a one-column block's scan over ``index``, each against ``_all_pairs_scan``."""
    pts = index.points
    kvec = np.array([2.3, -1.4])
    weights = np.minimum(np.hypot(*pts.T), 1.0) ** 0.6
    blocks = [np.column_stack([np.cos(pts @ kvec), pts[:, 1] ** 2]), np.sin(pts @ kvec)[:, None]]
    for block, (value, info) in zip(blocks, _pair_scan(index, blocks, weights, 0.45)):
        ref, ref_info = _all_pairs_scan(pts, block, weights, 0.45)
        assert (value, info.argmax) == (ref, ref_info.argmax)


def quotient_at(field, params, pair):
    """The weighted quotient of one sample pair, written out from the definition."""
    i, j = pair
    data = field.values[:, None] if params.k == 0 else field.gradients
    delta = np.minimum(np.hypot(*(field.points - params.edge_point).T), 1.0)
    w = min(delta[i], delta[j]) ** max(params.k + params.alpha + params.tau, 0.0)
    dist = math.dist(field.points[i], field.points[j])
    assert dist >= PAIR_DIST_FLOOR
    return w * math.dist(data[i], data[j]) / dist**params.alpha


@st.composite
def scan_cases(draw):
    """Clouds and norm parameters for the pair-scan equivalence property."""
    n = draw(st.integers(2, 400))
    shape = draw(st.sampled_from(["uniform", "disk", "reflex", "collinear", "strip", "near_floor", "lattice"]))
    k = draw(st.integers(0, 1))
    alpha = draw(st.floats(0.05, 0.95))
    # weight exponent k + alpha + tau: clamped to 0, or drawn from [0, 1.5]
    weighted = draw(st.booleans())
    tau = draw(st.floats(0.0, 1.5)) - k - alpha if weighted else -(k + 1.0)
    edge = draw(st.sampled_from([(0.0, 0.0), (0.4, -0.3)]))
    mode = draw(st.sampled_from(["smooth", "constant", "linear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    if shape == "lattice":
        # a grid of 2:1 cells: most points have neighbours tied at their
        # farthest seeded neighbour's distance (a square grid has few such ties)
        m = math.isqrt(n - 1) + 1
        pts = np.column_stack(np.divmod(np.arange(n), m)) * [2.0 / m, 1.0 / m] - 0.5
    elif shape in ("disk", "reflex"):
        # a unit disk, or a 3pi/2 wedge about the origin graded toward its corner
        r = np.sqrt(rng.uniform(0.0, 1.0, n)) if shape == "disk" else rng.uniform(0.0, 1.0, n) ** 1.6
        th = rng.uniform(-PI, PI, n) * (1.0 if shape == "disk" else 0.75)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    elif shape == "collinear":
        pts = 0.1 + pts[:, :1] * np.array([[1.0, 0.5]])
    elif shape == "strip":
        pts[:, 1] *= 1e-6
    elif shape == "near_floor":
        m = n // 2
        pts[m : 2 * m] = pts[:m] + rng.uniform(0.1, 3.0, size=(m, 2)) * PAIR_DIST_FLOOR
    kvec = rng.uniform(-4.0, 4.0, size=2)
    if mode == "constant":
        vals, grads = np.full(n, 1.7), np.full((n, 2), -0.3)
    elif mode == "linear":
        vals, grads = pts @ kvec + 0.2, pts @ rng.uniform(-4.0, 4.0, size=(2, 2)) - 0.3
    else:
        vals = np.sin(pts @ kvec) + np.hypot(*pts.T) ** 0.8
        grads = np.cos(pts @ kvec)[:, None] * kvec
    return SampledField(pts, vals, grads), NormParams(k, alpha, tau, edge)


def unseeded_pair_cloud(scale=1.0):
    """The cloud of ``test_unseeded_pair_just_beyond_seed_distances``, its values times ``scale``.

    P = (3, 0) with value 1 and Q = (4, 0) with value 0 each have 4 points on
    a radius-0.9 arc facing away from the other, spaced 0.9 apart, with the
    value 0 around Q and 1 around P but 0.99 at the ends (3, -+0.9), so the
    end pairs 1 apart stay below (P, Q).  A 2 x 5 unit grid of values 0.5 far
    to the left holds the data extremes: -0.49 at (-12, 0), 0.99 from its
    two grid neighbours, and 1.2 at (-8, 1).
    """
    fan = np.linspace(-PI / 2, PI / 2, 4)
    arc = 0.9 * np.column_stack([np.cos(fan), np.sin(fan)])
    gx, gy = np.meshgrid(np.arange(-12.0, -7.0), [0.0, 1.0])
    pts = np.vstack([[3.0, 0.0], [4.0, 0.0], [3.0, 0.0] - arc * [1, -1], [4.0, 0.0] + arc])
    pts = np.vstack([pts, np.column_stack([gx.ravel(), gy.ravel()])])
    vals = np.concatenate([[1.0, 0.0], np.ones(4), np.zeros(4), np.full(10, 0.5)])
    vals[[2, 5, 10, 19]] = 0.99, 0.99, -0.49, 1.2
    return SampledField(pts, vals * scale)


def gather_quotients(points, blocks, weights, alpha, i, j):
    """``_quotients`` as it was written with (..., 2) gathers and a width fork: the bit-for-bit reference.

    A two-column length below 2^-486 or overflowed, where the squares leave the
    normal range, is taken from ``np.hypot`` instead.
    """
    diff = points[i] - points[j]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    w = np.minimum(weights[i], weights[j])
    valid = dist >= PAIR_DIST_FLOOR
    scale = dist**alpha
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for data in blocks:
            dvec = data[i] - data[j]
            num = np.linalg.norm(dvec, axis=-1) if data.shape[1] > 1 else np.abs(dvec[..., 0])
            if data.shape[1] > 1:
                off = (num < 2.0**-486) | (num == np.inf)
                num[off] = np.hypot(dvec[..., 0], dvec[..., 1])[off]
            out.append(np.where(valid, w * num / scale, 0.0))
    return out, valid


@st.composite
def scaled_scan_cases(draw):
    """2-300 random points, per-sample weights in [0, 1), alpha, and 1-3 random blocks of width 1 or 2 times 10^s."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    blocks = [
        rng.standard_normal((n, draw(st.integers(1, 2)))) * 10.0 ** draw(st.integers(-300, 150))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return rng.uniform(-1.0, 1.0, (n, 2)), blocks, rng.uniform(0.0, 1.0, n), draw(st.floats(0.05, 0.95))


@st.composite
def data_blocks(draw, points, edge):
    """1-3 data blocks over ``points``: constant, linear or corner-singular, one or two columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 2))
        mode = draw(st.sampled_from(["constant", "linear", "singular"]))
        if mode == "constant":
            block = np.full((len(points), width), rng.uniform(-2.0, 2.0))
        elif mode == "linear":
            block = points @ rng.uniform(-4.0, 4.0, size=(2, width)) + rng.uniform(-1.0, 1.0, size=width)
        else:
            # the gradient of r^gamma about the edge point, or its radial part
            gamma = rng.uniform(0.3, 0.95)
            rel = points - edge
            r = np.maximum(np.hypot(rel[:, 0], rel[:, 1]), 1e-6)
            block = (gamma * r ** (gamma - 2.0))[:, None] * rel if width == 2 else r[:, None] ** (gamma - 1.0)
        blocks.append(block)
    return blocks


class TestWeights:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(*[st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))] * 2), min_size=1, max_size=64
        ),
        e=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0)),
    )
    def test_min_then_power_equals_power_then_min(self, pairs, e):
        # a pair's weight is the smaller of its samples' weights; that is
        # min(delta)^e itself only while numpy's power is monotone in its base
        d_i, d_j = np.array(pairs).T
        assert np.array_equal(np.minimum(d_i, d_j) ** e, np.minimum(d_i**e, d_j**e))

    @pytest.mark.parametrize("k, alpha, tau", [(1, 0.5, -2.0), (0, 0.4, -0.4)])
    def test_clamped_exponent_is_unweighted_at_the_edge_point(self, k, alpha, tau):
        # the origin sample has delta = 0; with every exponent clamped to 0 its
        # weight is 1, so the estimates are the unweighted ones
        f = power_field(0.8, n=400, include_origin=True)
        p = NormParams(k, alpha, tau)
        assert f.points[0].tolist() == [0.0, 0.0]
        assert weighted_seminorm_k0(f, p, order=0) == np.abs(f.values).max()
        if k == 1:
            assert weighted_seminorm_k0(f, p, order=1) == np.linalg.norm(f.gradients, axis=1).max()
        data = f.gradients if k == 1 else f.values[:, None]
        value, info = weighted_seminorm_kalpha(f, p, return_info=True)
        assert value == _all_pairs_scan(f.points, data, np.ones(f.n), alpha)[0]
        if k == 1:
            # the gradient jumps from 0 at the origin to 0.8 r^-0.2 next to it:
            # that pair is the max only when the origin weighs 1
            assert info.argmax == (0, 1)


class TestSeminormK0:
    def test_constant_field(self):
        pts = np.column_stack([np.linspace(0.1, 2.0, 50), np.zeros(50)])
        f = SampledField(pts, np.ones(50))
        assert weighted_seminorm_k0(f, NormParams(0, 0.5, tau=0.0), order=0) == 1.0

    def test_power_gradient_weight_cancels(self):
        # delta^(1-0.8) * |0.8 r^-0.2| = 0.8 on r <= 1
        f = power_field(0.8, r_min=0.01)
        val = weighted_seminorm_k0(f, NormParams(1, 0.5, tau=-0.8), order=1)
        assert val == pytest.approx(0.8, rel=1e-12)
        # brute-force oracle over the same samples
        r = np.hypot(*f.points.T)
        oracle = (np.minimum(r, 1.0) ** 0.2 * np.abs(f.gradients[:, 0])).max()
        assert val == pytest.approx(oracle, rel=1e-14)

    def test_weight_exponent_clamped_at_zero(self):
        f = power_field(1.0, r_min=0.01)
        val = weighted_seminorm_k0(f, NormParams(1, 0.5, tau=-2.0), order=1)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_gradient_required_for_order_one(self):
        f = SampledField(np.array([[0.1, 0.0], [0.2, 0.0]]), np.array([1.0, 2.0]))
        with pytest.raises(NormEstimateError):
            weighted_seminorm_k0(f, NormParams(1, 0.5), order=1)

    def test_empty_cloud(self):
        f = SampledField(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(NormEstimateError):
            weighted_seminorm_k0(f, NormParams(0, 0.5), order=0)

    @pytest.mark.parametrize("order", [2, -1, 0.5])
    def test_order_outside_0_1_rejected(self, order):
        pts = np.column_stack([np.linspace(0.1, 1.0, 10), np.zeros(10)])
        f = SampledField(pts, np.ones(10), np.ones((10, 2)))
        with pytest.raises(NormEstimateError, match="order must be 0 or 1"):
            weighted_seminorm_k0(f, NormParams(1, 0.5), order=order)


class TestSeminormKAlpha:
    def test_linear_field_gradient_seminorm_vanishes(self):
        pts = disk_cloud(300, seed=1)
        vals = 2.0 * pts[:, 0] - pts[:, 1]
        grads = np.tile([2.0, -1.0], (300, 1))
        f = SampledField(pts, vals, grads)
        assert weighted_seminorm_kalpha(f, NormParams(1, 0.4, tau=0.0)) == 0.0

    def test_power_field_matches_ray_oracle(self):
        # independent 1D maximization of the weighted quotient along the ray:
        # sup_t gamma (1 - t^(gamma-1)) / (t-1)^alpha over t > 1
        gamma, alpha = 0.8, 0.5
        t = np.linspace(1 + 1e-9, 300.0, 1_000_000)
        oracle = (gamma * (1 - t ** (gamma - 1)) / (t - 1) ** alpha).max()
        f = power_field(gamma, n=1000, r_min=1e-4)
        est = weighted_seminorm_kalpha(f, NormParams(1, alpha, tau=-gamma))
        assert est == pytest.approx(oracle, rel=2e-4)
        assert est <= oracle * (1 + 1e-12)

    def test_split_field_diverges_across_interface_only(self):
        # gradient jump across theta = 0: within-side quotients stay bounded
        # while cross-side pairs blow up as the pair distance shrinks
        sol, _ = build_dirichlet_example(0.8, make_wedge(-PI / 4, 3 * PI / 4))
        peaks = {"within": [], "across": []}
        for n in (200, 400, 800):
            th = np.linspace(-PI / 4 + 0.01, 3 * PI / 4 - 0.01, n)
            pts = np.column_stack([0.5 * np.cos(th), 0.5 * np.sin(th)])
            gx, gy = grad_separable_xy(sol, pts[:, 0], pts[:, 1])
            vals = eval_separable_xy(sol, pts[:, 0], pts[:, 1])
            f = SampledField(pts, vals, np.column_stack([gx, gy]))
            p = NormParams(1, 0.5, tau=-10.0)  # unweighted quotients
            upper = f.restrict(pts[:, 1] > 0)
            peaks["within"].append(weighted_seminorm_kalpha(upper, p))
            peaks["across"].append(weighted_seminorm_kalpha(f, p))
        # nearest cross pairs shrink by 4x in distance, so the unweighted
        # quotient grows like sqrt(4) = 2
        assert max(peaks["within"]) / min(peaks["within"]) < 1.6
        assert peaks["across"][-1] > 1.8 * peaks["across"][0]

    def test_pair_distance_floor(self):
        pts = np.array([[0.5, 0.0], [0.5 + 1e-12, 0.0], [0.8, 0.0]])
        f = SampledField(pts, np.array([1.0, 2.0, 1.0]))
        # the nearly-coincident pair would dominate; it must be excluded
        val = weighted_seminorm_kalpha(f, NormParams(0, 0.5, tau=0.0))
        assert val < 10.0

    def test_singleton_rejected(self):
        f = SampledField(np.array([[0.1, 0.0]]), np.array([1.0]))
        with pytest.raises(NormEstimateError):
            weighted_seminorm_kalpha(f, NormParams(0, 0.5))

    def test_branch_and_bound_equals_all_pairs(self):
        pts = disk_cloud(1200, seed=4)
        vals = np.sin(2 * pts[:, 0]) * pts[:, 1]
        f = SampledField(pts, vals)
        p = NormParams(0, 0.5, tau=-0.2)
        value, info = weighted_seminorm_kalpha(f, p, return_info=True)
        ref, ref_info = _all_pairs_scan(*_scan_args(f, p))
        assert value == ref
        assert 0 < info.n_pairs < ref_info.n_pairs == 1200 * 1199 // 2
        assert quotient_at(f, p, info.argmax) == pytest.approx(value, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(case=scan_cases())
    def test_branch_and_bound_matches_all_pairs_property(self, case):
        f, p = case
        points, data, weights, alpha = _scan_args(f, p)
        [(value, info)] = _pair_scan(_PairIndex(points), [data], weights, alpha)
        ref, _ = _all_pairs_scan(points, data, weights, alpha)
        assert value == ref
        if value > 0.0:
            assert quotient_at(f, p, info.argmax) == pytest.approx(value, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=scan_cases(), data=st.data())
    def test_block_scan_matches_all_pairs_per_block_property(self, case, data):
        f, p = case
        points, _, weights, alpha = _scan_args(f, p)
        blocks = data.draw(data_blocks(points, p.edge_point))
        scans = _pair_scan(_PairIndex(points), blocks, weights, alpha)
        assert len(scans) == len(blocks)
        for block, (value, info) in zip(blocks, scans):
            assert value == _all_pairs_scan(points, block, weights, alpha)[0]
            if value > 0.0:
                i, j = info.argmax
                (q,), _ = _quotients(points, [block], weights, alpha, i, j)
                assert q == pytest.approx(value, rel=1e-12)
        assert len({info.pruned for _, info in scans}) == 1

    def test_one_block_scan_is_pinned(self):
        # value and argmax of the single-block scan before blocks existed; the
        # counts of the walk that starts from the one-chunk cut, floored by the
        # nearest neighbour distances with no neighbour seeds
        pts = disk_cloud(1500, seed=21)
        kvec = np.array([1.3, -2.1])
        f = SampledField(pts, np.sin(pts @ kvec) + np.hypot(*pts.T) ** 0.8, np.cos(pts @ kvec)[:, None] * kvec)
        pinned = [
            (NormParams(1, 0.5, tau=-0.3), "0x1.f119045ef697ap+1", 25640, (12, 186), 2500),
            (NormParams(0, 0.4, tau=-1.0), "0x1.14f09ece23031p+1", 39534, (156, 543), 3509),
        ]
        for p, value, n_pairs, argmax, pruned in pinned:
            points, data, weights, alpha = _scan_args(f, p)
            [(got, info)] = _pair_scan(_PairIndex(points), [data], weights, alpha)
            assert got == float.fromhex(value)
            assert (info.n_pairs, info.argmax, info.pruned) == (n_pairs, argmax, pruned)
            assert weighted_seminorm_kalpha(f, p, return_info=True) == (got, info)

    @pytest.mark.parametrize(
        "n, start",
        [(5, "leaves"), (8, "leaves"), (256, "leaves"), (257, "inner"), (3000, "inner")],
    )
    def test_scan_equals_all_pairs_around_the_one_chunk_cut(self, n, start):
        # one leaf; 32 leaves of 8 points, whose 528 node pairs fit in one
        # chunk, and 64 leaves of 4 or 5, whose 2,080 do not; and a start four
        # levels above the leaves
        index = _PairIndex(disk_cloud(n, seed=n))
        ranges, inner = index.ranges, index.inner
        assert len(ranges) == 2 * inner + 1 and tuple(ranges[0]) == (0, n)
        # node i's halves 2i + 1 and 2i + 2 partition its range at the middle
        node = np.arange(inner)
        assert np.array_equal(ranges[2 * node + 1, 0], ranges[node, 0])
        assert np.array_equal(ranges[2 * node + 1, 1], ranges[2 * node + 2, 0])
        assert np.array_equal(ranges[2 * node + 2, 1], ranges[node, 1])
        assert np.array_equal(index.size[2 * node + 2] - index.size[2 * node + 1], index.size[node] % 2)
        # the leaves hold at most _LEAF points, and their parents more
        assert 1 <= index.size[inner:].min() and index.size[inner:].max() <= _LEAF
        assert inner == 0 or index.size[(inner - 1) // 2 : inner].max() > _LEAF
        for slots, (lo, hi) in zip(index.slots, ranges[inner:]):
            assert np.array_equal(slots[slots >= 0], index.perm[lo:hi])
        # start: every pair of the nodes at one depth, a node with itself
        # included, in one chunk
        cut = np.unique(index.start)
        assert np.array_equal(cut, np.arange(len(cut) - 1, 2 * len(cut) - 1))
        a, b = np.triu_indices(len(cut))
        assert np.array_equal(index.start, np.column_stack([cut[a], cut[b]]))
        assert len(index.start) <= _CHUNK
        assert (cut[0] == inner) == (start == "leaves")
        if start == "inner":
            # the next depth would not fit
            assert 2 * len(cut) * (2 * len(cut) + 1) // 2 > _CHUNK
        scan_equals_all_pairs(index)

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 16, 100, 255, 256, 288, 600, 1000, 3000, 20000])
    def test_nodes_equal_kdtree_nodes_on_tie_free_clouds(self, n):
        # outside the bands [8 * 2^k + 1, 9 * 2^k) and without tied
        # coordinates, cKDTree's nodes are the same halves of its kd order
        pts = disk_cloud(n, seed=n + 1)
        assert np.array_equal(_PairIndex(pts).ranges, kdtree_node_table(cKDTree(pts, leafsize=_LEAF)))

    @pytest.mark.parametrize(
        "points",
        [
            np.stack(np.meshgrid(np.arange(24.0), np.arange(25.0)), axis=-1).reshape(-1, 2) / 24,
            polar_grid(),
            disk_cloud(17, seed=17),
            disk_cloud(140, seed=140),
            disk_cloud(1100, seed=1100),
        ],
        ids=["lattice", "polar_grid", "17", "140", "1100"],
    )
    def test_scan_equals_all_pairs_where_the_nodes_are_not_kdtree_nodes(self, points):
        # tied coordinates, where cKDTree's nodes are not halves, and clouds
        # in the bands, where cKDTree keeps some 8-point nodes as leaves
        index = _PairIndex(points)
        assert not np.array_equal(index.ranges, kdtree_node_table(cKDTree(points, leafsize=_LEAF)))
        scan_equals_all_pairs(index)

    @pytest.mark.parametrize("constant_first", [True, False])
    def test_constant_block_leaves_linear_block_scan_unchanged(self, constant_first):
        # a constant block's bound is 0, so it never keeps a node pair: the
        # linear block prunes as it does alone, and the constant block still
        # gets its exact value 0
        n = 2000
        pts = disk_cloud(n, seed=3)
        linear = (0.7 * pts[:, 0] - 0.3 * pts[:, 1] + 0.2)[:, None]
        constant = np.full((n, 1), 1.7)
        weights = np.ones(n)
        [alone] = _pair_scan(_PairIndex(pts), [linear], weights, 0.4)
        scans = _pair_scan(_PairIndex(pts), [constant, linear] if constant_first else [linear, constant], weights, 0.4)
        (value, info), together = scans if constant_first else scans[::-1]
        assert together == alone
        assert alone[0] == _all_pairs_scan(pts, linear, weights, 0.4)[0]
        assert alone[1].pruned > 0 and alone[1].n_pairs <= 0.03 * n * (n - 1) / 2
        assert value == _all_pairs_scan(pts, constant, weights, 0.4)[0] == 0.0
        assert info.pruned == alone[1].pruned

    def test_unseeded_pair_just_beyond_seed_distances(self):
        # the maximum pair (P, Q) = (0, 1) at distance 1 lies just beyond both
        # points' nearest neighbour distance 0.9, the floor of their nodes'
        # bounds.  The 10 pairs of the 4 leaves fill the start chunk, so every
        # leaf pair is judged against the far seeds' best, 0.99 on the grid,
        # and P's and Q's leaves, 1 apart, each hold one arc: a distance
        # floor 1.25 times too large prunes (P, Q).
        f = unseeded_pair_cloud()
        points, data, weights, alpha = _scan_args(f, NormParams(0, 0.5, tau=0.5))
        index = _PairIndex(points)
        assert len(index.start) == 10
        [(value, info)] = _pair_scan(index, [data], weights, alpha)
        assert value == _all_pairs_scan(points, data, weights, alpha)[0] == 1.0
        assert info.argmax == (0, 1)
        assert info.n_pairs < 20 * 19 // 2
        index.near = 1.25 * index.near
        [(value, info)] = _pair_scan(index, [data], weights, alpha)
        assert value < 1.0 and info.argmax != (0, 1)

    @pytest.mark.parametrize("scale", [1e-200, 1e-300])
    def test_unseeded_pair_found_when_squares_underflow(self, scale):
        # the span of a one-column block squares to 0 below 2^-511: a bound
        # formed as sqrt(span^2) read 0 there and pruned the maximal pair
        f = unseeded_pair_cloud(scale)
        points, data, weights, alpha = _scan_args(f, NormParams(0, 0.5, tau=0.5))
        [(value, info)] = _pair_scan(_PairIndex(points), [data], weights, alpha)
        assert value == _all_pairs_scan(points, data, weights, alpha)[0] == scale
        assert info.argmax == (0, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e160])
    def test_first_order_norms_scale_with_tiny_and_huge_gradients(self, scale):
        # sqrt(gx*gx + gy*gy) loses digits below about 1e-154, reads 0 below
        # about 1e-162 and overflows above about 1e154
        pts = disk_cloud(200, seed=5)
        grads = np.column_stack([pts[:, 0], pts[:, 1] ** 2])
        p = NormParams(1, 0.5, tau=-0.7)
        one, scaled = SampledField(pts, pts[:, 0], grads), SampledField(pts, pts[:, 0], grads * scale)
        for norm in (lambda f: weighted_seminorm_k0(f, p, order=1), lambda f: weighted_seminorm_kalpha(f, p)):
            assert norm(one) > 0.0
            assert math.isclose(norm(scaled), scale * norm(one), rel_tol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=scaled_scan_cases())
    def test_block_scan_matches_all_pairs_at_any_scale_property(self, case):
        points, blocks, weights, alpha = case
        for block, (value, info) in zip(blocks, _pair_scan(_PairIndex(points), blocks, weights, alpha)):
            ref, ref_info = _all_pairs_scan(points, block, weights, alpha)
            assert (value, info.argmax) == (ref, ref_info.argmax)

    @settings(max_examples=100, deadline=None)
    @given(case=scaled_scan_cases())
    def test_quotients_equal_gather_reference_property(self, case):
        # the blocks' differences span 1e-300 to 1e150 and beyond
        points, blocks, weights, alpha = case
        n = len(points)
        rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
        flat = (np.repeat(np.arange(n), 2), np.roll(np.arange(n), 1).repeat(2))
        for i, j in [(rows, cols), flat]:
            got, valid = _quotients(points, blocks, weights, alpha, i, j)
            want, want_valid = gather_quotients(points, blocks, weights, alpha, i, j)
            assert np.array_equal(valid, want_valid)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_constant_field_prunes_the_root(self):
        n = 500
        f = SampledField(disk_cloud(n, seed=2), np.full(n, 1.7))
        value, info = weighted_seminorm_kalpha(f, NormParams(0, 0.4, tau=-1.0), return_info=True)
        assert value == 0.0
        # every node pair the walk starts from is pruned, so nothing is split
        assert info.pruned == len(_PairIndex(f.points).start) > 1
        # only the seeds: every point with the one extreme point of the constant data column
        assert info.n_pairs == n - 1

    def test_linear_disk_evaluates_few_pairs(self):
        n = 2000
        pts = disk_cloud(n, seed=3)
        f = SampledField(pts, 0.7 * pts[:, 0] - 0.3 * pts[:, 1] + 0.2)
        p = NormParams(0, 0.4, tau=-1.0)
        value, info = weighted_seminorm_kalpha(f, p, return_info=True)
        assert value == _all_pairs_scan(*_scan_args(f, p))[0]
        assert info.n_pairs <= 0.03 * n * (n - 1) / 2
        assert info.pruned > 0

    def test_graded_corner_gradients_are_pruned(self):
        # the benchmark's witness warm-up cloud: gradients of the gamma = 0.8
        # straight-wall solution at points graded toward the corner like the
        # mu = 0.8 mesh; the lower side's first 1,000 of 20,000 seeded draws
        wedge = make_wedge(-PI / 4, 3 * PI / 4)
        sol, _ = build_dirichlet_example(0.8, wedge)
        rng = np.random.default_rng(1)
        r = 0.25 * (1.0 - rng.random(20_000)) ** (1.0 / 1.6)
        th = rng.uniform(wedge.theta_minus, wedge.theta_plus, 20_000)
        x, y = (r * np.cos(th))[th < 0][:1000], (r * np.sin(th))[th < 0][:1000]
        grads = np.column_stack(grad_separable_xy(sol, x, y, -1))
        f = SampledField(np.column_stack([x, y]), eval_separable_xy(sol, x, y), grads)
        p = NormParams(1, 0.5, tau=-0.8)
        value, info = weighted_seminorm_kalpha(f, p, return_info=True)
        assert value == _all_pairs_scan(*_scan_args(f, p))[0]
        assert info.n_pairs < 1000 * 999 // 2
        assert info.pruned > 0

    def test_monotone_under_refinement(self):
        # exact-mode estimate over a superset never decreases
        rng = np.random.default_rng(8)
        pts = disk_cloud(600, seed=8)
        vals = np.cos(3 * pts[:, 0]) + pts[:, 1] ** 2
        f_small = SampledField(pts[:300], vals[:300])
        f_big = SampledField(pts, vals)
        p = NormParams(0, 0.3, tau=0.1)
        assert weighted_seminorm_kalpha(f_big, p) >= weighted_seminorm_kalpha(
            f_small, p
        )

    def test_homogeneity(self):
        pts = disk_cloud(250, seed=3)
        vals = np.sin(pts[:, 0] + pts[:, 1])
        p = NormParams(0, 0.5, tau=-0.1)
        a = weighted_seminorm_kalpha(SampledField(pts, vals), p)
        b = weighted_seminorm_kalpha(SampledField(pts, -3.5 * vals), p)
        assert b == pytest.approx(3.5 * a, rel=1e-12)

    def test_clamp_equals_unweighted(self):
        pts = disk_cloud(250, seed=6)
        vals = pts[:, 0] ** 2
        f = SampledField(pts, vals)
        alpha = 0.4
        clamped = weighted_seminorm_kalpha(f, NormParams(0, alpha, tau=-(0 + alpha)))
        unweighted = weighted_seminorm_kalpha(f, NormParams(0, alpha, tau=-5.0))
        assert clamped == pytest.approx(unweighted, rel=1e-14)


class TestWeightedNorm:
    def test_constant_total(self):
        pts = np.column_stack([np.linspace(0.5, 1.5, 40), np.zeros(40)])
        f = SampledField(pts, np.full(40, -2.5))
        rep = weighted_norm(f, NormParams(0, 0.5, tau=0.0))
        assert rep.total == pytest.approx(2.5)
        assert rep.seminorm_kalpha == 0.0

    def test_singular_field_weighted_vs_weightfree(self):
        # with tau = -gamma the estimate stabilizes under refinement toward
        # the corner; the weight-free Holder norm grows without bound
        sol, _ = build_dirichlet_example(0.8, make_wedge(-PI / 4, 3 * PI / 4))
        totals = {"weighted": [], "plain": []}
        for r_min in (1e-2, 1e-3, 1e-4):
            r = np.geomspace(r_min, 1.0, 700)
            th = np.full_like(r, 0.35)
            pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
            gx, gy = grad_separable_xy(sol, pts[:, 0], pts[:, 1])
            f = SampledField(
                pts, eval_separable_xy(sol, pts[:, 0], pts[:, 1]), np.column_stack([gx, gy])
            )
            totals["weighted"].append(
                weighted_norm(f, NormParams(1, 0.5, tau=-0.8)).total
            )
            totals["plain"].append(plain_norm(f, k=1, alpha=0.5))
        w = totals["weighted"]
        assert max(w) / min(w) < 1.5
        assert totals["plain"][-1] > 5.0 * totals["plain"][0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_column_norms_equal_plain_norm_per_column(self, seed):
        pts = disk_cloud(700, seed=seed)
        columns = np.column_stack([np.sin(3 * pts[:, 0]) * pts[:, 1], 0.4 * pts[:, 0] - pts[:, 1], np.full(700, -2.0)])
        got = plain_column_norms(SampledField(pts, columns[:, 0]), columns, 0.35)
        assert got == [plain_norm(SampledField(pts, c), k=0, alpha=0.35) for c in columns.T]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_column_norms_reject_non_finite_columns(self, bad):
        # a NaN norm would drop out of the caller's max, and with it the column
        pts = disk_cloud(50, seed=4)
        columns = np.column_stack([pts[:, 0], pts[:, 1]])
        columns[9, 1] = bad
        with pytest.raises(NormEstimateError, match="finite"):
            plain_column_norms(SampledField(pts, columns[:, 0]), columns, 0.35)

    def test_report_fields(self):
        pts = disk_cloud(100, seed=12)
        grads = np.column_stack([np.ones(100), np.zeros(100)])
        f = SampledField(pts, pts[:, 0], grads)
        rep = weighted_norm(f, NormParams(1, 0.5, tau=0.0))
        assert len(rep.seminorms_k0) == 2
        assert rep.total == pytest.approx(
            sum(rep.seminorms_k0) + rep.seminorm_kalpha
        )
        assert all(v >= 0 for v in rep.seminorms_k0)
        lines = rep.as_lines()
        assert any(line.startswith("total = ") for line in lines)
        assert lines[-2:] == [
            f"pairs_evaluated = {rep.n_pairs}",
            f"node_pairs_pruned = {rep.pruned}",
        ]


class TestCsvRoundTrip:
    def test_with_gradients(self, tmp_path):
        pts = disk_cloud(40, seed=3)
        grads = np.column_stack([pts[:, 1], -pts[:, 0]])
        regions = np.where(pts[:, 1] >= 0, 1, -1).astype(np.int8)
        f = SampledField(pts, pts[:, 0] ** 2, grads, regions)
        path = tmp_path / "field.csv"
        write_sampled_field_csv(f, path)
        g = read_sampled_field_csv(path)
        # 17 significant digits read every float64 back exactly
        assert np.array_equal(g.points, f.points)
        assert np.array_equal(g.values, f.values)
        assert np.array_equal(g.gradients, f.gradients)
        assert np.array_equal(g.regions, regions)
        header = path.read_text().splitlines()[0]
        assert header == "x,y,region,value,gx,gy"

    def test_without_gradients(self, tmp_path):
        pts = disk_cloud(10, seed=2)
        f = SampledField(pts, np.linspace(-1.0, 1.0, 10) / 3.0)
        path = tmp_path / "plain.csv"
        write_sampled_field_csv(f, path)
        g = read_sampled_field_csv(path)
        assert g.gradients is None
        assert np.array_equal(g.points, f.points)
        assert np.array_equal(g.values, f.values)
        # untagged samples are written and read back as interface samples
        assert np.array_equal(g.regions, np.zeros(10))

    def test_region_tags_read_back(self, tmp_path):
        regions = np.array([1, -1, 0, 1, 0], dtype=np.int8)
        f = SampledField(disk_cloud(5, seed=6), np.arange(5.0), None, regions)
        path = tmp_path / "tags.csv"
        write_sampled_field_csv(f, path)
        assert [line.split(",")[2] for line in path.read_text().splitlines()[1:]] == ["+", "-", "0", "+", "0"]
        assert np.array_equal(read_sampled_field_csv(path).regions, regions)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,value\n0,0,1\n")
        with pytest.raises(NormEstimateError):
            read_sampled_field_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,0", "expected 4 cells"),
            ("1,0,+,2,9", "expected 4 cells"),
            ("1,abc,+,2", "abc"),
            ("1,0,q,2", "unknown region code 'q'"),
        ],
        ids=["short_row", "long_row", "non_numeric_cell", "unknown_region"],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y,region,value\n0.1,0.2,+,1\n{row}\n")
        with pytest.raises(NormEstimateError, match="line 3") as err:
            read_sampled_field_csv(path)
        assert message in str(err.value)

    def test_header_only_file_has_no_sample_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y,region,value\n")
        with pytest.raises(NormEstimateError, match="no sample rows") as err:
            read_sampled_field_csv(path)
        assert str(path) in str(err.value)


class TestSampledFieldValidation:
    def test_duplicate_points_rejected(self):
        pts = np.array([[0.1, 0.2], [0.1, 0.2]])
        with pytest.raises(NormEstimateError):
            SampledField(pts, np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "pair",
        [
            ((0.3, -0.2), (0.3, -0.2)),
            ((0.0, 0.5), (-0.0, 0.5)),  # a signed-zero pair is one point
            ((0.5, -0.0), (0.5, 0.0)),
            ((0.0, 0.0), (-0.0, -0.0)),
        ],
    )
    def test_repeated_row_among_distinct_ones_rejected(self, pair):
        pts = np.vstack([disk_cloud(40, seed=3), pair])
        pts = pts[np.random.default_rng(4).permutation(len(pts))]
        with pytest.raises(NormEstimateError, match="distinct"):
            SampledField(pts, np.zeros(len(pts)))

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, 1.0 + 2.0**-52])] * 2), min_size=0, max_size=12
        )
    )
    def test_distinctness_matches_np_unique(self, rows):
        # the check np.unique(points, axis=0) made before the sort-based one
        pts = np.array(rows, dtype=float).reshape(-1, 2)
        repeated = len(pts) > 0 and np.unique(pts, axis=0).shape[0] != len(pts)
        if repeated:
            with pytest.raises(NormEstimateError, match="distinct"):
                SampledField(pts, np.zeros(len(pts)))
        else:
            assert SampledField(pts, np.zeros(len(pts))).n == len(pts)

    def test_shape_mismatch(self):
        with pytest.raises(NormEstimateError):
            SampledField(np.zeros((3, 2)), np.zeros(2))

    @pytest.mark.parametrize("shape", [(39,), (40, 1)])
    def test_restrict_mask_of_wrong_shape_rejected(self, shape):
        f = SampledField(disk_cloud(40, seed=5), np.zeros(40))
        with pytest.raises(NormEstimateError, match=r"shape \(40,\)"):
            f.restrict(np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["points", "values", "gradients"])
    def test_non_finite_samples_rejected(self, column, bad):
        # a NaN drops out of every pair bound, so the scan would skip it silently
        arrays = dict(points=disk_cloud(4, seed=1), values=np.ones(4), gradients=np.zeros((4, 2)))
        arrays[column][2, ...] = bad
        with pytest.raises(NormEstimateError, match="finite"):
            SampledField(**arrays)

    def test_duplicate_csv_row_rejected(self, tmp_path):
        # the CSV reader is a door for outside data: it keeps the distinctness check
        path = tmp_path / "dup.csv"
        path.write_text("x,y,region,value\n0.1,0.2,+,1\n0.3,0.2,-,2\n0.1,0.2,+,3\n")
        with pytest.raises(NormEstimateError, match="distinct"):
            read_sampled_field_csv(path)

    @pytest.mark.parametrize("with_grad", [True, False])
    def test_restrict_keeps_shapes_dtypes_and_tags(self, with_grad):
        pts = disk_cloud(60, seed=5)
        grads = np.column_stack([pts[:, 1], -pts[:, 0]]) if with_grad else None
        regions = np.where(pts[:, 1] > 0, 1, -1).astype(np.int8)
        f = SampledField(pts, pts[:, 0] ** 2, grads, regions)
        for mask in (pts[:, 1] > 0, pts[:, 0] > 0.3, np.ones(60, dtype=bool), np.zeros(60, dtype=bool)):
            sub = f.restrict(mask)
            m = int(mask.sum())
            assert sub.n == m
            assert sub.points.shape == (m, 2) and sub.points.dtype == np.float64
            assert sub.values.shape == (m,) and sub.values.dtype == np.float64
            assert np.array_equal(sub.points, pts[mask])
            assert np.array_equal(sub.values, pts[mask, 0] ** 2)
            assert sub.regions.dtype == np.int8
            assert np.array_equal(sub.regions, regions[mask])
            if with_grad:
                assert sub.gradients.shape == (m, 2) and sub.gradients.dtype == np.float64
                assert np.array_equal(sub.gradients, grads[mask])
            else:
                assert sub.gradients is None
        empty = f.restrict(np.zeros(60, dtype=bool))
        assert empty.n == 0 and empty.regions.shape == (0,)

    @pytest.mark.parametrize("tag", [2, -2, 0.5])
    def test_region_tag_outside_plus_minus_one_and_zero_rejected(self, tag):
        # the CSV has no code for such a tag, so writing it would change the data
        regions = np.array([1, -1, tag, 0])
        with pytest.raises(NormEstimateError, match="regions"):
            SampledField(disk_cloud(4, seed=1), np.ones(4), None, regions)

    def test_restrict_takes_only_a_boolean_mask(self):
        # an index array could repeat a point, and restrict does not re-check distinctness
        f = SampledField(disk_cloud(10, seed=1), np.ones(10))
        with pytest.raises(NormEstimateError, match="boolean"):
            f.restrict(np.array([0, 0]))

    def test_alpha_range(self):
        with pytest.raises(NormEstimateError):
            NormParams(0, 1.0)
        with pytest.raises(NormEstimateError):
            NormParams(2, 0.5)
        for tau in (math.nan, math.inf):
            with pytest.raises(NormEstimateError, match="tau"):
                NormParams(1, 0.5, tau=tau)

    @pytest.mark.parametrize(
        "edge",
        [(math.nan, 0.0), (0.0, math.inf), (1.0,), (0.0, 0.0, 0.0), ("a", 0.0), None, ((0.0, 0.0), (1.0, 1.0))],
    )
    def test_edge_point_must_be_two_finite_numbers(self, edge):
        # a NaN edge point made every weight NaN: the pair scan pruned every node
        # pair and read [f]_{k,alpha} = 0; a one-number edge point raised IndexError
        with pytest.raises(NormEstimateError, match="edge point"):
            NormParams(1, 0.5, edge_point=edge)

    def test_edge_point_accepts_a_pair_of_numbers(self):
        assert NormParams(0, 0.5, edge_point=[0.4, -0.3]).edge_point == [0.4, -0.3]
        assert NormParams(0, 0.5, edge_point=np.array([1, 2])).k == 0
