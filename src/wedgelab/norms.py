"""Point-cloud estimators for edge-weighted Holder norms.

The continuum norms take suprema over a domain; here every sup becomes a max
over samples, and the two-point Holder seminorm a max over sample pairs.
With delta(x) = min(|x - E|, 1) the estimated quantities are

    [f]_{k,0}   = max_x  delta(x)^max(k+tau, 0) * |D^k f(x)|,
    [f]_{k,a}   = max_xy min(delta)^max(k+a+tau, 0)
                         * |D^k f(x) - D^k f(y)| / |x - y|^a,
    ||f||_{k,a} = sum_{i<=k} [f]_{i,0} + [f]_{k,a},

with |.| the Euclidean norm of the gradient when k = 1.  Pair scans run
exhaustively up to ``EXACT_PAIR_POINT_LIMIT`` points and switch to a seeded
randomized subsample above that (the evaluated pair count is reported).
Also provided: the diameter-scaled ("primed") norm and the dilation-decay
norm  sup_r r^(1-s) (mean_{rD} |f|^p)^(1/p)  over a dyadic radius set.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import delta_dist_arr

EXACT_PAIR_POINT_LIMIT = 3000
DEFAULT_RANDOM_PAIR_BUDGET = 4_500_000
PAIR_DIST_FLOOR = 1e-9
_BLOCK = 256


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
        if n > 0 and np.unique(self.points, axis=0).shape[0] != n:
            raise NormEstimateError("sample points must be distinct")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def restrict(self, mask: np.ndarray) -> "SampledField":
        return SampledField(
            self.points[mask],
            self.values[mask],
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


@dataclass
class PairScanInfo:
    mode: str  # "exact" or "random"
    n_pairs: int
    argmax: tuple[int, int]


@dataclass
class NormReport:
    seminorms_k0: list[float]
    seminorm_kalpha: float
    total: float
    argmax_pair: tuple[int, int]
    argmax_points: tuple[tuple[float, float], tuple[float, float]]
    pair_mode: str
    n_pairs: int

    def as_lines(self) -> list[str]:
        lines = [
            f"seminorm_{i}_0 = {v:.17g}" for i, v in enumerate(self.seminorms_k0)
        ]
        lines.append(f"seminorm_k_alpha = {self.seminorm_kalpha:.17g}")
        lines.append(f"total = {self.total:.17g}")
        (xa, ya), (xb, yb) = self.argmax_points
        lines.append(f"argmax_pair = ({xa:.17g}, {ya:.17g}) ({xb:.17g}, {yb:.17g})")
        lines.append(f"pair_mode = {self.pair_mode}")
        lines.append(f"pairs_evaluated = {self.n_pairs}")
        return lines


def _order_data(field: SampledField, order: int) -> np.ndarray:
    if order == 0:
        return field.values[:, None]
    if field.gradients is None:
        raise NormEstimateError("gradient samples required for a first-order estimate")
    return field.gradients


def weighted_seminorm_k0(field: SampledField, params: NormParams, order: int | None = None) -> float:
    """max over samples of delta^max(order+tau, 0) * |D^order f|."""
    if field.n == 0:
        raise NormEstimateError("empty sample set")
    i = params.k if order is None else int(order)
    data = _order_data(field, i)
    mags = np.linalg.norm(data, axis=1) if data.shape[1] > 1 else np.abs(data[:, 0])
    w_exp = max(i + params.tau, 0.0)
    if w_exp == 0.0:
        return float(mags.max())
    return float((delta_dist_arr(field.points, params.edge_point) ** w_exp * mags).max())


def _pair_scan(
    points: np.ndarray,
    data: np.ndarray,
    deltas: np.ndarray,
    weight_exp: float,
    alpha: float,
    pair_budget: int | None,
    exact_limit: int,
    seed: int,
) -> tuple[float, PairScanInfo]:
    n = points.shape[0]
    if n < 2:
        raise NormEstimateError("at least two distinct samples required for a pair scan")
    total_pairs = n * (n - 1) // 2
    best = 0.0
    best_pair = (0, 1)

    if pair_budget is None and n <= exact_limit:
        evaluated = 0
        for i0 in range(0, n - 1, _BLOCK):
            i1 = min(i0 + _BLOCK, n - 1)
            rows = np.arange(i0, i1)
            diff = points[rows][:, None, :] - points[None, i0 + 1 :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            dmat = data[rows][:, None, :] - data[None, i0 + 1 :, :]
            num = np.linalg.norm(dmat, axis=2) if data.shape[1] > 1 else np.abs(dmat[..., 0])
            cols = np.arange(i0 + 1, n)
            valid = (cols[None, :] > rows[:, None]) & (dist >= PAIR_DIST_FLOOR)
            if weight_exp > 0.0:
                w = np.minimum(deltas[rows][:, None], deltas[None, i0 + 1 :]) ** weight_exp
            else:
                w = 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                q = np.where(valid, w * num / dist**alpha, 0.0)
            evaluated += int(valid.sum())
            flat = int(np.argmax(q))
            val = float(q.flat[flat])
            if val > best:
                best = val
                ri, ci = np.unravel_index(flat, q.shape)
                best_pair = (int(rows[ri]), int(cols[ci]))
        return best, PairScanInfo("exact", evaluated, best_pair)

    budget = (
        min(DEFAULT_RANDOM_PAIR_BUDGET, total_pairs)
        if pair_budget is None
        else min(int(pair_budget), 4 * total_pairs)
    )
    budget = max(budget, 1)
    rng = np.random.default_rng(seed)
    evaluated = 0
    chunk = 1 << 20
    remaining = budget
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n, size=m)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
        diff = points[ii] - points[jj]
        dist = np.hypot(diff[:, 0], diff[:, 1])
        keep = dist >= PAIR_DIST_FLOOR
        ii, jj, dist = ii[keep], jj[keep], dist[keep]
        if ii.size == 0:
            continue
        dvec = data[ii] - data[jj]
        num = np.linalg.norm(dvec, axis=1) if data.shape[1] > 1 else np.abs(dvec[:, 0])
        if weight_exp > 0.0:
            w = np.minimum(deltas[ii], deltas[jj]) ** weight_exp
        else:
            w = 1.0
        q = w * num / dist**alpha
        evaluated += ii.size
        k = int(np.argmax(q))
        if float(q[k]) > best:
            best = float(q[k])
            best_pair = (int(ii[k]), int(jj[k]))
    return best, PairScanInfo("random", evaluated, best_pair)


def weighted_seminorm_kalpha(
    field: SampledField,
    params: NormParams,
    pair_budget: int | None = None,
    exact_limit: int = EXACT_PAIR_POINT_LIMIT,
    seed: int = 0,
    return_info: bool = False,
):
    """Two-point Holder seminorm estimate with min-delta weighting.

    Exhaustive over all pairs up to ``exact_limit`` points; a seeded random
    pair subsample otherwise (or when ``pair_budget`` forces it).  Pairs
    closer than ``PAIR_DIST_FLOOR`` are excluded.
    """
    if field.n < 2:
        raise NormEstimateError("at least two samples required")
    data = _order_data(field, params.k)
    w_exp = max(params.k + params.alpha + params.tau, 0.0)
    value, info = _pair_scan(
        field.points,
        data,
        delta_dist_arr(field.points, params.edge_point),
        w_exp,
        params.alpha,
        pair_budget,
        exact_limit,
        seed,
    )
    return (value, info) if return_info else value


def weighted_norm(
    field: SampledField,
    params: NormParams,
    pair_budget: int | None = None,
    exact_limit: int = EXACT_PAIR_POINT_LIMIT,
    seed: int = 0,
) -> NormReport:
    """Full weighted-norm estimate: sum of k0 seminorms plus the Holder part."""
    k0 = [weighted_seminorm_k0(field, params, order=i) for i in range(params.k + 1)]
    kalpha, info = weighted_seminorm_kalpha(
        field, params, pair_budget, exact_limit, seed, return_info=True
    )
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
        pair_mode=info.mode,
        n_pairs=info.n_pairs,
    )


def plain_norm(
    field: SampledField,
    k: int,
    alpha: float,
    pair_budget: int | None = None,
    exact_limit: int = EXACT_PAIR_POINT_LIMIT,
    seed: int = 0,
) -> float:
    """Unweighted Holder norm estimate (weight exponents forced to zero)."""
    params = NormParams(k=k, alpha=alpha, tau=-(k + 1.0))
    k0 = [weighted_seminorm_k0(field, params, order=i) for i in range(k + 1)]
    kalpha = weighted_seminorm_kalpha(field, params, pair_budget, exact_limit, seed)
    return float(sum(k0) + kalpha)


def cloud_diameter(points: np.ndarray) -> float:
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return 0.0
    try:
        from scipy.spatial import ConvexHull

        hull_pts = pts[ConvexHull(pts).vertices]
    except Exception:  # degenerate (collinear) clouds
        hull_pts = pts if pts.shape[0] <= 4000 else pts[:: pts.shape[0] // 4000 + 1]
    diff = hull_pts[:, None, :] - hull_pts[None, :, :]
    return float(np.hypot(diff[..., 0], diff[..., 1]).max())


def primed_norm(
    field: SampledField,
    k: int,
    alpha: float,
    pair_budget: int | None = None,
    seed: int = 0,
) -> float:
    """Diameter-scaled norm  sum_j d^j [u]_{j,0} + d^(k+alpha) [u]_{k,alpha}."""
    if field.n == 0:
        raise NormEstimateError("empty sample set")
    d = cloud_diameter(field.points)
    params = NormParams(k=k, alpha=alpha, tau=-(k + 1.0))
    total = 0.0
    for j in range(k + 1):
        total += d**j * weighted_seminorm_k0(field, params, order=j)
    total += d ** (k + alpha) * weighted_seminorm_kalpha(
        field, params, pair_budget=pair_budget, seed=seed
    )
    return float(total)


@dataclass
class YNormEstimate:
    value: float
    rows: list[tuple[float, int, float]]  # (radius, sample count, term)


def y_norm(field: SampledField, s: float, p: float, radii=None) -> YNormEstimate:
    """Dilation-decay norm  max_r r^(1-s) (mean_{rD} |f|^p)^(1/p).

    ``rD`` is the sample cloud dilated about the origin: a sample x lies in
    rD when |x| <= r * max_i |x_i|.  The mean is the Monte-Carlo average over
    samples inside; per-radius sample counts are reported.
    """
    if field.n == 0:
        raise NormEstimateError("empty sample set")
    if not s > 0.0:
        raise NormEstimateError(f"decay exponent must be positive, got {s}")
    if not (1.0 < p < math.inf):
        raise NormEstimateError(f"integrability exponent must lie in (1, inf), got {p}")
    if radii is None:
        radii = [2.0**-j for j in range(0, 5)]
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= 0.0 or radii[-1] > 1.0 + 1e-12:
        raise NormEstimateError("dilation radii must lie in (0, 1]")
    rho = np.hypot(field.points[:, 0], field.points[:, 1])
    r_cloud = float(rho.max())
    if r_cloud == 0.0:
        raise NormEstimateError("sample cloud has zero extent")
    absfp = np.abs(field.values) ** p
    rows = []
    best = 0.0
    for r in radii:
        mask = rho <= r * r_cloud * (1.0 + 1e-12)
        count = int(mask.sum())
        if count == 0:
            if r == radii[0]:
                raise NormEstimateError(
                    f"no samples inside the smallest dilation r = {r:.6g}"
                )
            rows.append((r, 0, float("nan")))
            continue
        term = r ** (1.0 - s) * float(absfp[mask].mean()) ** (1.0 / p)
        rows.append((r, count, term))
        best = max(best, term)
    return YNormEstimate(value=best, rows=rows)


# ---------------------------------------------------------------------------
# CSV interchange

_REGION_CODE = {1: "+", -1: "-", 0: "0"}
_CODE_REGION = {"+": 1, "-": -1, "0": 0}


def write_sampled_field_csv(field: SampledField, path, value_column: str = "value") -> None:
    """Columns x,y,region,value[,gx,gy]; floats carry 17 significant digits.

    Solution exports name the value column ``u``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["x", "y", "region", value_column]
        with_grad = field.gradients is not None
        if with_grad:
            header += ["gx", "gy"]
        writer.writerow(header)
        regions = field.regions if field.regions is not None else np.zeros(field.n, dtype=int)
        for i in range(field.n):
            row = [
                f"{field.points[i, 0]:.17g}",
                f"{field.points[i, 1]:.17g}",
                _REGION_CODE.get(int(regions[i]), "0"),
                f"{field.values[i]:.17g}",
            ]
            if with_grad:
                row += [f"{field.gradients[i, 0]:.17g}", f"{field.gradients[i, 1]:.17g}"]
            writer.writerow(row)


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
            pts.append((float(row["x"]), float(row["y"])))
            vals.append(float(row[value_column]))
            regs.append(_CODE_REGION.get(row["region"].strip(), 0))
            if with_grad:
                grads.append((float(row["gx"]), float(row["gy"])))
    return SampledField(
        np.asarray(pts),
        np.asarray(vals),
        np.asarray(grads) if with_grad else None,
        np.asarray(regs, dtype=np.int8),
    )
