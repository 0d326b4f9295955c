"""Point-cloud estimators for edge-weighted Holder norms.

The continuum norms take suprema over a domain; here every sup becomes a max
over samples, and the two-point Holder seminorm a max over sample pairs.
With delta(x) = min(|x - E|, 1) the estimated quantities are

    [f]_{k,0}   = max_x  delta(x)^max(k+tau, 0) * |D^k f(x)|,
    [f]_{k,a}   = max_xy min(delta)^max(k+a+tau, 0)
                         * |D^k f(x) - D^k f(y)| / |x - y|^a,
    ||f||_{k,a} = sum_{i<=k} [f]_{i,0} + [f]_{k,a},

with |.| the Euclidean norm of the gradient when k = 1.  ``_magnitude`` alone
forms |.|: the k0 max, the pair quotients and the scan's bound all call it,
so bound and quotient agree, and stay within rounding where a square would
underflow or overflow.  ``_weights`` alone raises delta to its exponent; a
pair takes the smaller of its samples' weights, min(delta)^e itself, as
x -> x^e is monotone for e >= 0.

The pair max is exact over all pairs: a dual-tree branch and bound (Gray & Moore, "N-body
problems in statistical learning", NIPS 2000) brute-forces only the node
pairs whose quotient bound can beat the best pair found so far, and reports
the quotients it evaluated, the node pairs it pruned and the argmax pair.
It walks an index over the points (``_PairIndex``): a kd-tree, each point's
nearest neighbours and the tree's node table.  The best pair starts from
seeds: each point with its nearest neighbours and with the extreme points of
every data column.  A pair that no neighbour seed covered is at least as
long as either point's farthest seeded neighbour, so that distance floors
the bound of every node pair, including a node paired with itself or with a
touching node.  The walk starts from every node pair of the deepest
breadth-first cut of the tree that fits in one chunk, at every cloud size.

An index serves every scan over its points.  One scan serves several data
blocks, such as the two components of a vector field: it gives each block
its own best pair and its own far seeds, and prunes a node pair only when
every block's bound allows it, so each block's max is still over all pairs,
the same value its own scan finds.  A field made by ``with_pair_index``
carries its index to each scan over it, which is how ``analysis`` builds one
index per side of a solve's cloud; a scan over any other field builds its
own index, so no index outlives the field that holds it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import delta_dist_arr

PAIR_DIST_FLOOR = 1e-9
_BLOCK = 256  # rows per step of the all-pairs reference scan
_LEAF = 8  # most points in a kd-tree leaf
_CHUNK = 1024  # most node pairs per step of the tree walk: at most 1024 * _LEAF^2 = 65,536 quotients at once
_SEED_NEIGHBOURS = 4  # neighbours per point that seed the incumbent and set the distance floor; 6 and 8 were slower
_SLACK = 1.0 + 1e-12  # bounds are inflated by this against rounding before pruning
_TINY = 2.0**-486  # squares of components below this may be subnormal: _magnitude recomputes such lengths


class NormEstimateError(ValueError):
    """Sample set unusable for the requested estimate."""


@dataclass
class SampledField:
    """Field samples: points (n,2), values (n,), optional gradients (n,2).

    ``regions`` tags each sample +1 (upper), -1 (lower), or 0 (interface).
    """

    points: np.ndarray
    values: np.ndarray
    gradients: np.ndarray | None = None
    regions: np.ndarray | None = None

    _pair_index = None  # the _PairIndex of points, set only by with_pair_index

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise NormEstimateError("points must be an (n, 2) array")
        n = self.points.shape[0]
        if self.values.shape != (n,):
            raise NormEstimateError("values must be an (n,) array")
        if self.gradients is not None:
            self.gradients = np.asarray(self.gradients, dtype=float)
            if self.gradients.shape != (n, 2):
                raise NormEstimateError("gradients must be an (n, 2) array")
        if self.regions is not None:
            self.regions = np.asarray(self.regions)
            if self.regions.shape != (n,):
                raise NormEstimateError("regions must be an (n,) array")
        checked = (self.points, self.values) + (() if self.gradients is None else (self.gradients,))
        if not all(np.isfinite(a).all() for a in checked):
            raise NormEstimateError("points, values and gradients must be finite")
        # sorted by x, then y, equal rows are adjacent
        order = np.lexsort((self.points[:, 1], self.points[:, 0]))
        x, y = self.points[order, 0], self.points[order, 1]
        if np.any((x[1:] == x[:-1]) & (y[1:] == y[:-1])):
            raise NormEstimateError("sample points must be distinct")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @classmethod
    def _subset(cls, points, values, gradients=None, regions=None) -> "SampledField":
        """Samples cut from a checked field: a subset of distinct points is distinct, so no check runs."""
        field = object.__new__(cls)
        field.points, field.values, field.gradients, field.regions = points, values, gradients, regions
        return field

    def restrict(self, mask: np.ndarray) -> "SampledField":
        """The samples where the boolean ``mask`` of shape (n,) is true."""
        if np.asarray(mask).dtype != bool or np.shape(mask) != (self.n,):
            raise NormEstimateError(f"restrict takes a boolean mask of shape ({self.n},)")
        return SampledField._subset(
            self.points[mask], self.values[mask],
            None if self.gradients is None else self.gradients[mask],
            None if self.regions is None else self.regions[mask],
        )


@dataclass(frozen=True)
class NormParams:
    k: int
    alpha: float
    tau: float = 0.0
    edge_point: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.k not in (0, 1):
            raise NormEstimateError(f"derivative order must be 0 or 1, got {self.k}")
        if not (0.0 < self.alpha < 1.0):
            raise NormEstimateError(f"Holder exponent must lie in (0, 1), got {self.alpha}")
        if not np.isfinite(self.tau):
            raise NormEstimateError(f"weight exponent tau must be finite, got {self.tau}")


@dataclass
class PairScanInfo:
    n_pairs: int  # quotients evaluated
    argmax: tuple[int, int]
    pruned: int  # node pairs the bound discarded


@dataclass
class NormReport:
    seminorms_k0: list[float]
    seminorm_kalpha: float
    total: float
    argmax_pair: tuple[int, int]
    argmax_points: tuple[tuple[float, float], tuple[float, float]]
    n_pairs: int
    pruned: int

    def as_lines(self) -> list[str]:
        lines = [f"seminorm_{i}_0 = {fmt(v)}" for i, v in enumerate(self.seminorms_k0)]
        lines.append(f"seminorm_k_alpha = {fmt(self.seminorm_kalpha)}")
        lines.append(f"total = {fmt(self.total)}")
        (xa, ya), (xb, yb) = self.argmax_points
        lines.append(f"argmax_pair = ({fmt(xa)}, {fmt(ya)}) ({fmt(xb)}, {fmt(yb)})")
        lines.append(f"pairs_evaluated = {self.n_pairs}")
        lines.append(f"node_pairs_pruned = {self.pruned}")
        return lines


def _order_data(field: SampledField, order: int) -> np.ndarray:
    if order == 0:
        return field.values[:, None]
    if field.gradients is None:
        raise NormEstimateError("gradient samples required for a first-order estimate")
    return field.gradients


def _magnitude(columns):
    """Euclidean length of vectors given by a list of components, or by the rows of a (d, ...) array.

    |c0| for one, sqrt(c0*c0 + c1*c1) for two: the sum of ``np.linalg.norm(axis=-1)``, in its order.
    Where that sum lost digits to subnormal squares (a length below ``_TINY``)
    or overflowed, ``np.hypot`` recomputes the length, so it stays within
    rounding at any scale and every other entry is unchanged.
    """
    if len(columns) == 1:
        return np.abs(columns[0])
    c0, c1 = columns
    with np.errstate(over="ignore"):
        out = np.sqrt(c0 * c0 + c1 * c1)
    bad = (out < _TINY) | (out == np.inf)
    if bad.any():
        out[bad] = np.hypot(c0[bad], c1[bad])
    return out


def _weights(field: SampledField, params: NormParams, exponent: float) -> np.ndarray:
    """delta^max(exponent, 0) at each sample: the only place a distance weight is formed."""
    return delta_dist_arr(field.points, params.edge_point) ** max(exponent, 0.0)


def weighted_seminorm_k0(field: SampledField, params: NormParams, order: int | None = None) -> float:
    """max over samples of delta^max(order+tau, 0) * |D^order f|."""
    if field.n == 0:
        raise NormEstimateError("empty sample set")
    i = params.k if order is None else order
    if i not in (0, 1):
        raise NormEstimateError(f"derivative order must be 0 or 1, got {order}")
    mags = _magnitude(_order_data(field, i).T)
    return float((_weights(field, params, i + params.tau) * mags).max())


def _scan_args(field: SampledField, params: NormParams):
    """Pair-scan inputs for [f]_{k,alpha}: points, data, weights delta^max(k+alpha+tau, 0), alpha."""
    weights = _weights(field, params, params.k + params.alpha + params.tau)
    return field.points, _order_data(field, params.k), weights, params.alpha


def _quotients(points, blocks, weights, alpha, i, j):
    """Each data block's quotients of the index pairs (i, j), 0 below the floor, and the mask of those above it.

    A pair's weight is the smaller of its two samples' ``weights``.  The
    blocks share the distances, weights and mask, not the quotients.
    """
    x, y = points.T
    dist = np.hypot(x[i] - x[j], y[i] - y[j])
    w = np.minimum(weights[i], weights[j])
    valid = dist >= PAIR_DIST_FLOOR
    scale = dist**alpha
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for data in blocks:
            num = _magnitude([c[i] - c[j] for c in data.T])
            out.append(np.where(valid, w * num / scale, 0.0))
    return out, valid


def _all_pairs_scan(points, data, weights, alpha) -> tuple[float, PairScanInfo]:
    """Reference scan: every pair i < j, in blocks of rows."""
    n = points.shape[0]
    best, best_pair, evaluated = 0.0, (0, 1), 0
    for i0 in range(0, n - 1, _BLOCK):
        rows = np.arange(i0, min(i0 + _BLOCK, n - 1))[:, None]
        cols = np.arange(i0 + 1, n)[None, :]
        (q,), valid = _quotients(points, [data], weights, alpha, rows, cols)
        upper = cols > rows
        q = np.where(upper, q, 0.0)
        evaluated += int((valid & upper).sum())
        ri, ci = np.unravel_index(int(np.argmax(q)), q.shape)
        if float(q[ri, ci]) > best:
            best, best_pair = float(q[ri, ci]), (i0 + int(ri), i0 + 1 + int(ci))
    return best, PairScanInfo(evaluated, best_pair, 0)


def _node_table(tree: cKDTree):
    """Each node's (start, end) range of ``tree.indices``, its two children (-1 for a leaf) and its depth.

    Nodes are numbered breadth first, the root as node 0.
    """
    nodes, children, depth = [tree.tree], [], [0]
    for k, node in enumerate(nodes):  # the lists grow while they are walked
        if node.lesser is None:
            children.append((-1, -1))
        else:
            children.append((len(nodes), len(nodes) + 1))
            nodes += [node.lesser, node.greater]
            depth += [depth[k] + 1] * 2
    return np.array([(node.start_idx, node.end_idx) for node in nodes]), np.array(children), np.array(depth)


class _PairIndex:
    """What a pair scan reads of its points alone: built once per point set, walked by every scan over it.

    One ``cKDTree`` (median split along the widest side, leaves of at most
    ``_LEAF`` points) gives each point's ``_SEED_NEIGHBOURS`` nearest
    neighbours, kept as the index pairs ``seeds``, and the nodes of the walk,
    numbered breadth first: each node's ``ranges`` of ``perm``, its
    ``children`` (-1 for a leaf), ``size``, point box ``lo`` to ``hi``, its
    leaf ``slots`` (the points of a leaf, then -1) and its distance floor
    ``near``, the smallest distance from a point of the node to its farthest
    seeded neighbour.  ``start`` holds the node pairs the walk starts from:
    every pair, a node with itself included, of the deepest breadth-first cut
    (the nodes at one depth and the leaves above it) whose pairs fit in one
    ``_CHUNK``.  When every leaf pair fits, that cut is the leaves.
    """

    def __init__(self, points: np.ndarray):
        n = points.shape[0]
        if n < 2:
            raise NormEstimateError("at least two distinct samples required for a pair scan")
        self.points = points
        tree = cKDTree(points, leafsize=_LEAF)
        dist, nbrs = tree.query(points, k=min(_SEED_NEIGHBOURS + 1, n))
        # column 0 is at distance 0: the point itself, a pair below the floor
        self.seeds = np.repeat(np.arange(n), nbrs.shape[1] - 1), nbrs[:, 1:].ravel()
        self.perm = perm = tree.indices
        self.ranges, self.children, depth = _node_table(tree)
        # reduceat reads one row past each range end, hence the extra row
        cols = np.column_stack([points, dist[:, -1]])[np.append(perm, 0)]
        lo = np.minimum.reduceat(cols, self.ranges.ravel())[::2]
        self.lo, self.near = lo[:, :2], np.maximum(lo[:, 2], PAIR_DIST_FLOOR)
        self.hi = np.maximum.reduceat(cols[:, :2], self.ranges.ravel())[::2]
        self.size = self.ranges[:, 1] - self.ranges[:, 0]
        leaf = self.children[:, 0] < 0
        width = int(self.size[leaf].max())  # the largest leaf
        slot = self.ranges[:, :1] + np.arange(width)
        self.slots = np.where(slot < self.ranges[:, 1:], perm[np.minimum(slot, n - 1)], -1)
        # cut d: the nodes at depth d and the leaves above it; cuts grow with d
        leaves = np.bincount(depth[leaf], minlength=depth[-1] + 1)
        count = np.bincount(depth) + np.cumsum(leaves) - leaves
        d = int(np.flatnonzero(count * (count + 1) // 2 <= _CHUNK)[-1])
        cut = np.flatnonzero((depth == d) | (leaf & (depth < d)))
        a, b = np.triu_indices(len(cut))
        self.start = np.column_stack([cut[a], cut[b]])


def with_pair_index(field: SampledField) -> SampledField:
    """The samples of ``field``, carrying the pair index of their points: every scan over them walks it.

    Any other field's scans build their own index, so an index lives as long
    as the copy that carries it; ``analysis`` keeps one per side of a solve's
    cloud in the solve's memo.
    """
    out = SampledField._subset(field.points, field.values, field.gradients, field.regions)
    out._pair_index = _PairIndex(field.points)
    return out


def _index_of(field: SampledField) -> _PairIndex:
    """The pair index ``field`` carries, else a new one over its points."""
    return _PairIndex(field.points) if field._pair_index is None else field._pair_index


def _pair_scan(index: _PairIndex, blocks, weights, alpha) -> list[tuple[float, PairScanInfo]]:
    """Exact max of the weighted pair quotient of each data block, by dual-tree branch and bound.

    ``blocks`` are (n, d) data arrays over the points of ``index``, sharing
    the per-sample ``weights`` and alpha.  Every node of the index gets the
    data box of every block and its largest weight, next to its point box
    and distance floor ``near``.  Each block has its own incumbent, which
    starts from seeds: each point with its ``_SEED_NEIGHBOURS`` nearest
    neighbours, then each point with the argmin and the argmax point of
    every column of that block, which finds the far pairs where smooth data
    peaks.  A node pair (A, B) is pruned when, for every block,
        min(max_A w, max_B w) * |data span of A u B|
            / max(gap(A, B), near_A, near_B, floor)^alpha
    is no larger than that block's incumbent.  The bound covers every pair
    that no neighbour seed evaluated: were such a pair (i, j) shorter than
    the distance from i to its farthest seeded neighbour, then j would be one
    of i's nearest neighbours.  Pairs that a seed evaluated are already no
    larger than the incumbent, and pairs below the floor are excluded.  The
    walk starts from the index's ``start`` pairs, which fill at most one
    chunk, and goes on depth first in chunks; each chunk brute-forces its
    surviving leaf pairs for every block at once and splits the others.  So
    each block's max is over all pairs, and equals ``_all_pairs_scan`` on
    that block alone bit for bit.  Returns each block's max and
    ``PairScanInfo``; the blocks share the leaf pairs and the pruned count.
    """
    points, n = index.points, index.points.shape[0]
    best, pruned = np.zeros(len(blocks)), 0
    best_pair, evaluated = [(0, 1)] * len(blocks), [0] * len(blocks)

    def consider(i, j, keep=True, which=range(len(blocks))):
        qs, valid = _quotients(points, [blocks[b] for b in which], weights, alpha, i, j)
        count = int((valid & keep).sum())
        for b, q in zip(which, qs):
            evaluated[b] += count
            q = np.where(keep, q, 0.0)
            k = np.unravel_index(int(np.argmax(q)), q.shape)
            if float(q[k]) > best[b]:
                ii, jj = np.broadcast_arrays(i, j)
                best[b], best_pair[b] = float(q[k]), (int(min(ii[k], jj[k])), int(max(ii[k], jj[k])))

    consider(*index.seeds)
    for b, data in enumerate(blocks):
        ends = np.array(sorted({*data.argmin(axis=0).tolist(), *data.argmax(axis=0).tolist()}))
        i, j = np.arange(n)[:, None], ends[None, :]
        consider(i, j, i != j, [b])

    children, size, slots, near, plo, phi = index.children, index.size, index.slots, index.near, index.lo, index.hi
    cols = np.column_stack([*blocks, weights])[np.append(index.perm, 0)]
    lo = np.minimum.reduceat(cols, index.ranges.ravel())[::2]
    hi = np.maximum.reduceat(cols, index.ranges.ravel())[::2]
    offsets = np.cumsum([0] + [data.shape[1] for data in blocks])  # block b's data columns: offsets[b]:offsets[b + 1]
    width = slots.shape[1]
    upper = np.triu(np.ones((width, width), dtype=bool), 1)

    def bound(a, b):
        """Each block's bound (columns) of each node pair (rows)."""
        gap = np.maximum(np.maximum(plo[b] - phi[a], plo[a] - phi[b]), 0.0)
        span = np.maximum(hi[a, :-1], hi[b, :-1]) - np.minimum(lo[a, :-1], lo[b, :-1])
        dist = np.maximum(np.hypot(gap[:, 0], gap[:, 1]), np.maximum(near[a], near[b]))
        w, scale = np.minimum(hi[a, -1], hi[b, -1]), dist**alpha
        return np.column_stack([w * _magnitude(span[:, s:e].T) / scale for s, e in zip(offsets, offsets[1:])])

    stack = index.start
    while stack.size:
        pairs, stack = stack[-_CHUNK:], stack[:-_CHUNK]
        keep = (bound(pairs[:, 0], pairs[:, 1]) * _SLACK > best).any(axis=1)
        pruned += len(pairs) - int(keep.sum())
        a, b = pairs[keep].T
        leaf = (children[a, 0] < 0) & (children[b, 0] < 0)
        if leaf.any():
            ia, ib = a[leaf], b[leaf]
            i, j = slots[ia][:, :, None], slots[ib][:, None, :]
            consider(i, j, (i >= 0) & (j >= 0) & ((ia != ib)[:, None, None] | upper))
        # split the larger node of each pair (a node paired with itself gives
        # three pairs)
        a, b = a[~leaf], b[~leaf]
        big = np.where(size[a] >= size[b], a, b)
        small = a + b - big
        c0, c1 = children[big].T
        same = a == b
        kids = np.column_stack(
            [c0, np.where(same, c0, small), c1, np.where(same, c1, small), c0, c1]
        ).reshape(-1, 3, 2)
        every = np.ones_like(same)
        stack = np.concatenate([stack, kids[np.column_stack([every, every, same])]])
    return [(float(best[b]), PairScanInfo(evaluated[b], best_pair[b], pruned)) for b in range(len(blocks))]


def weighted_seminorm_kalpha(field: SampledField, params: NormParams, return_info: bool = False):
    """Two-point Holder seminorm with min-delta weighting, exact over all pairs.

    Pairs closer than ``PAIR_DIST_FLOOR`` are excluded.  With ``return_info``
    the ``PairScanInfo`` (quotients evaluated, argmax pair) comes along.
    """
    _, data, weights, alpha = _scan_args(field, params)
    [(value, info)] = _pair_scan(_index_of(field), [data], weights, alpha)
    return (value, info) if return_info else value


def weighted_norm(field: SampledField, params: NormParams) -> NormReport:
    """Full weighted-norm estimate: sum of k0 seminorms plus the Holder part."""
    k0 = [weighted_seminorm_k0(field, params, order=i) for i in range(params.k + 1)]
    kalpha, info = weighted_seminorm_kalpha(field, params, return_info=True)
    i, j = info.argmax
    return NormReport(
        seminorms_k0=k0,
        seminorm_kalpha=kalpha,
        total=float(sum(k0) + kalpha),
        argmax_pair=info.argmax,
        argmax_points=(
            (float(field.points[i, 0]), float(field.points[i, 1])),
            (float(field.points[j, 0]), float(field.points[j, 1])),
        ),
        n_pairs=info.n_pairs,
        pruned=info.pruned,
    )


def plain_norm(field: SampledField, k: int, alpha: float) -> float:
    """Unweighted Holder norm estimate (weight exponents forced to zero)."""
    return weighted_norm(field, NormParams(k=k, alpha=alpha, tau=-(k + 1.0))).total


def plain_column_norms(field: SampledField, columns: np.ndarray, alpha: float) -> list[float]:
    """``plain_norm(., k=0, alpha)`` of each column of ``columns`` (n, m) over the points of ``field``, from one pair scan.

    Each is max|f| + [f]_{0,alpha}, summed as ``weighted_norm`` sums it; the
    scan is unweighted: every sample's weight is 1.  The field's values are
    not read; its points' pair index is, when it carries one.
    """
    NormParams(k=0, alpha=alpha)  # checks alpha
    blocks = [columns[:, [c]] for c in range(columns.shape[1])]
    scans = _pair_scan(_index_of(field), blocks, np.ones(field.n), alpha)
    return [float(_magnitude(data.T).max()) + value for data, (value, _) in zip(blocks, scans)]


# ---------------------------------------------------------------------------
# CSV interchange

_REGION_CODE = {1: "+", -1: "-", 0: "0"}
_CODE_REGION = {"+": 1, "-": -1, "0": 0}


def fmt(x: float) -> str:
    """17 significant digits: enough to read any float64 back exactly."""
    return f"{x:.17g}"


def write_csv(path, header: list[str], rows) -> None:
    """One header row, then ``rows``; float cells are written with ``fmt``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])


def write_sampled_field_csv(field: SampledField, path, value_column: str = "value") -> None:
    """Columns x,y,region,value[,gx,gy]; floats carry 17 significant digits.

    Solution exports name the value column ``u``.
    """
    regions = field.regions if field.regions is not None else np.zeros(field.n, dtype=int)
    header = ["x", "y", "region", value_column]
    columns = [
        field.points[:, 0].tolist(),
        field.points[:, 1].tolist(),
        [_REGION_CODE.get(r, "0") for r in regions.tolist()],
        field.values.tolist(),
    ]
    if field.gradients is not None:
        header += ["gx", "gy"]
        columns += [field.gradients[:, 0].tolist(), field.gradients[:, 1].tolist()]
    write_csv(path, header, zip(*columns))


def read_sampled_field_csv(path) -> SampledField:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        for required in ("x", "y", "region"):
            if required not in cols:
                raise NormEstimateError(f"field CSV missing column {required!r}")
        value_column = "value" if "value" in cols else "u"
        if value_column not in cols:
            raise NormEstimateError("field CSV missing a 'value' or 'u' column")
        with_grad = "gx" in cols and "gy" in cols
        pts, vals, grads, regs = [], [], [], []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row or None in row.values():
                raise NormEstimateError(f"{where}: expected {len(cols)} cells")
            code = row["region"].strip()
            if code not in _CODE_REGION:
                raise NormEstimateError(f"{where}: unknown region code {code!r} (known: +, -, 0)")
            regs.append(_CODE_REGION[code])
            try:
                pts.append((float(row["x"]), float(row["y"])))
                vals.append(float(row[value_column]))
                if with_grad:
                    grads.append((float(row["gx"]), float(row["gy"])))
            except ValueError as exc:
                raise NormEstimateError(f"{where}: {exc}") from exc
    if not pts:
        raise NormEstimateError(f"{path}: no sample rows")
    return SampledField(
        np.asarray(pts),
        np.asarray(vals),
        np.asarray(grads) if with_grad else None,
        np.asarray(regs, dtype=np.int8),
    )
