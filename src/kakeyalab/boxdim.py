"""Box-counting dimension estimates for the sets this package builds.

Neighbourhood volume |N_dK| is measured by occupancy of a cell grid
at pitch d/4.  For a tube family a cell counts when its centre lies
within delta + d of a core segment: that is the d-neighbourhood of the
tube with round end caps (a capsule), not of the capless tube that
tubelab's `in_tube` tests, so it keeps its own distance test; the caps
add at most a (delta + d)-ball per tube end.  A point cloud is measured
by the same test as zero-length segments of width 0: a cell counts when
its centre lies within d of a point.  A capsule is convex, so it meets
each grid line along x (one per row, and per slice in 3-D) in one
interval: the union of the cylinder's chord, a quadratic in x cut to
the segment's span, and the two end balls' chords.  Each (tube, line)
pair adds that interval to a per-strip difference array, so the fill
costs lines x tubes, not bounding-box cells.  The closed form is
trusted only for cell centres more than a margin (1e-9 of the
coordinate scale) inside or outside it; the cells at each end are
decided by the distance test itself, t = clip((g - a).w, 0, len) and
|g - a - t w|^2 <= (delta + d)^2, so the count is that test's count.

A region K is closed, so N_dK is K together with the points within d
of its outline, and the same fill measures it: each outline edge is a
capsule of reach d, and its crossing of each row centre adds +1 (going
down) or -1 (going up) at the first cell whose centre is at or past
the crossing.  A cell's running sum is then its winding count plus the
capsules that hold it; every polygon is CCW, so both parts are >= 0
and a positive sum counts the union, however deep the overlap.  The
winding runs over the outline only, not every polygon edge: an edge
two pieces share cancels exactly, but its two traversals can round to
neighbouring cells, where no capsule would cover the difference; a
crossing of an outline edge that rounds past a cell centre stays
inside that edge's own capsule.  On the unit square at d = 2^-5 this
gives 1.128174 against the exact 1 + 4d + pi d^2 = 1.128068 (a
digital-disc dilation gave 1.143616).

The log-log slope of those volumes against d gives the Minkowski
dimension, and the same curve feeds the discretized lower bound
|N_dK| >= c_eps * d^eps that a full-dimensional set must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactgeom.region import Region2
from .parallel import map_ordered
from .tubelab.core import TubeFamily

__all__ = [
    "BoxCountCurve",
    "DimError",
    "DimensionEstimate",
    "KakeyaBoundReport",
    "kakeya_bound_check",
    "minkowski_estimate",
    "neighborhood_volume_curve",
]

# Grid caps: tube families and point clouds, then regions.  The fill
# holds one strip (_LINE_STRIP_CELLS cells: a 4 MiB int32 array, or a
# sparse strip's int64 step keys) at a time, so caps bound work, not memory.
_MAX_CELLS = 1 << 27
_SCAN_CELLS = 1 << 31
_LINE_STRIP_CELLS = 1 << 20
# A strip with more than this many cells per (tube, line) span is
# sparse.  Measured strip by strip, sorting won on every 2-D strip under
# 1/16 spans per cell and lost on the bush and Cantor strips over 1/8;
# in between, the two counts were within 6% of each other.
_SPARSE_CELLS_PER_SPAN = 8
_SPAN_BLOCK = 1 << 13
# Grid pitch is delta / _CELL_FACTOR.
_CELL_FACTOR = 4.0


class DimError(ValueError):
    """Invalid input to a dimension estimation routine."""


@dataclass(frozen=True)
class BoxCountCurve:
    """Neighbourhood volumes (delta, |N_dK|) at strictly decreasing delta."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        entries = tuple((float(d), float(v)) for d, v in self.entries)
        if not entries:
            raise DimError("a curve needs at least one entry")
        for d, v in entries:
            if not (0.0 < d < 1.0) or not math.isfinite(d):
                raise DimError(f"delta must lie in (0, 1), got {d}")
            if not (v > 0.0) or not math.isfinite(v):
                raise DimError(f"volume must be positive, got {v}")
        for (d1, v1), (d2, v2) in zip(entries, entries[1:]):
            if not d2 < d1:
                raise DimError("deltas must be strictly decreasing")
            if v2 > v1:
                raise DimError("volumes must be non-increasing as delta shrinks")
        object.__setattr__(self, "entries", entries)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(d for d, _ in self.entries)

    @property
    def volumes(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DimensionEstimate:
    """Least-squares Minkowski dimension with its fit residual.

    delta_range records the (coarsest, finest) scales the fit used
    after dropping one scale at each end.  local_slopes holds ambient
    minus the log-log slope between each pair of neighbouring scales of
    the whole curve, coarsest first.  When the fit uses 3 or more
    scales, uncertainty is the larger of the slope's least-squares
    standard error and the full range of the local slopes between
    fitted scales: a bending curve's slopes trend rather than scatter,
    and the standard error alone would not cover the trend.  With 2
    fitted scales the fit is a single local slope, so it is half the
    range of local_slopes instead.
    """

    dimension: float
    residual: float
    delta_range: tuple[float, float]
    local_slopes: tuple[float, ...]
    uncertainty: float


@dataclass(frozen=True)
class KakeyaBoundReport:
    """Result of testing |N_dK| >= c_eps * d^eps along a curve.

    c_epsilon is the infimum of |N_dK| / d^eps over the curve;
    consistent means the infimum is positive and the ratio shows no
    vanishing trend toward fine scales.
    """

    epsilon: float
    c_epsilon: float
    delta_at_min: float
    ratios: tuple[float, ...]
    consistent: bool


def _axes(lo: np.ndarray, hi: np.ndarray, cell: float,
          cap: int = _MAX_CELLS) -> tuple[np.ndarray, np.ndarray]:
    counts = np.maximum(np.ceil((hi - lo) / cell).astype(int), 1)
    if int(np.prod(counts)) > cap:
        raise DimError(
            f"analysis grid would need {int(np.prod(counts))} cells; "
            "use coarser deltas")
    return lo, counts


def _grid(pts, reach, cell, cap):
    """Origin and cell counts of the grid over pts padded by reach + cell."""
    pad = reach + cell
    return _axes(pts.min(axis=0) - pad, pts.max(axis=0) + pad, cell, cap)


def _window(lo, counts, cell, wlo, whi):
    """Index range of cells whose centres might fall in [wlo, whi]."""
    i0 = np.maximum(np.floor((wlo - lo) / cell - 0.5).astype(int), 0)
    i1 = np.minimum(np.ceil((whi - lo) / cell + 0.5).astype(int), counts)
    return i0, i1


def _boundary_edges(region: Region2) -> np.ndarray:
    """Edges of the union outline, as an (n, 2, 2) float array.

    Every polygon is CCW, so an edge two pieces share is traversed once
    each way and cancels; edges with a nonzero net count trace the outer
    boundary, however many overlapping copies repeat them.
    """
    polys = region.floats()
    if not polys:
        raise DimError("cannot measure an empty region")
    counts: dict = {}
    keyed = []
    for poly in region.polygons:
        ring = []
        for p, q in zip(poly, poly[1:] + poly[:1]):
            a = (p.x, p.y)
            b = (q.x, q.y)
            key, turn = ((a, b), 1) if a <= b else ((b, a), -1)
            counts[key] = counts.get(key, 0) + turn
            ring.append(key)
        keyed.append(ring)
    out = []
    for V, ring in zip(polys, keyed):
        for k, key in enumerate(ring):
            if counts[key] != 0:
                out.append((V[k], V[(k + 1) % len(V)]))
    return np.array(out).reshape(-1, 2, 2)


def _spans(first, count):
    """(j, i) for every i in [first[j], first[j] + count[j]), j-major."""
    j = np.repeat(np.arange(len(count)), count)
    return j, np.arange(len(j)) - np.repeat(np.cumsum(count) - count, count) + first[j]


def _chord(centre, q2, rr2):
    """Ends of {u : (u - centre)^2 + q2 <= rr2}, or (inf, -inf) where empty."""
    h = np.sqrt(np.maximum(rr2 - q2, 0.0))
    hit = q2 <= rr2
    return np.where(hit, centre - h, np.inf), np.where(hit, centre + h, -np.inf)


def _line_chords(da, db, ub, w, length, radii):
    """Where lines along x meet capsules, in u = x - a[0], per radius.

    Line k is a[k] + (u, da[k]), and also b[k] + (u - ub[k], db[k]) for
    the far end b[k] = a[k] + length[k] w[k].  Each interval is the union
    of the cylinder's chord, a quadratic in u cut to the segment's span
    0 <= u w0 + qe <= length, and the two end balls' chords; pieces that
    miss are dropped first, and a line that misses all gets (inf, -inf).
    """
    e0 = w[:, 0]
    qa2 = sum(d * d for d in da)
    qb2 = sum(d * d for d in db)
    qe = sum(d * w[:, m] for m, d in enumerate(da, 1))
    alpha = sum(w[:, m] ** 2 for m in range(1, w.shape[1]))
    cross2 = (da[0] * w[:, 2] - da[1] * w[:, 1]) ** 2 if len(da) == 2 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        uc = e0 * qe / alpha
        ta, tb = -qe / e0, (length - qe) / e0
    tl = np.where(e0 > 0, ta, np.where(e0 < 0, tb, -np.inf))
    th = np.where(e0 > 0, tb, np.where(e0 < 0, ta, np.inf))
    cyl = (length > 0) & ((e0 != 0) | ((qe >= 0) & (qe <= length)))
    tilted = alpha > 0
    out = []
    for rr in radii:
        rr2 = rr * rr
        D = alpha * rr2 - cross2
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.sqrt(np.maximum(D, 0.0)) / alpha
        c_lo = np.where(tilted, np.maximum(uc - h, tl), tl)
        c_hi = np.where(tilted, np.minimum(uc + h, th), th)
        hit = cyl & (c_lo <= c_hi) & np.where(tilted, D >= 0, qa2 - qe * qe <= rr2)
        (a_lo, a_hi), (b_lo, b_hi) = _chord(0.0, qa2, rr2), _chord(ub, qb2, rr2)
        out.append((np.minimum(np.minimum(a_lo, b_lo), np.where(hit, c_lo, np.inf)),
                    np.maximum(np.maximum(a_hi, b_hi), np.where(hit, c_hi, -np.inf))))
    return out


def _sorted_count(keys: np.ndarray, cells: int) -> int:
    """count_nonzero(cumsum(diff)) of a diff of cells cells holding +-1
    steps, from their keys 2 index + (step > 0): the running sum holds
    between sorted positions, and steps at one position leave no gap."""
    keys = np.sort(keys)
    gaps = np.diff(keys >> 1, append=cells)
    return int(gaps[np.cumsum(2 * (keys & 1) - 1) != 0].sum())


def _capsule_volume(A: np.ndarray, W: np.ndarray, lengths: np.ndarray,
                    reach: float, cell: float, wind: np.ndarray = np.zeros((0, 2, 2)),
                    cap: int = _MAX_CELLS) -> float:
    """Volume of the cells whose centres lie within reach of a segment
    A[i] + t W[i], 0 <= t <= lengths[i], or inside the closed CCW curves
    that wind traces in 2-D: wind[i] holds the exact ends of segment i,
    for each i < len(wind)."""
    dim = A.shape[1]
    B = A + lengths[:, None] * W
    lo, counts = _grid(np.vstack([A, B]), reach, cell, cap)
    pad = reach + cell
    w0, w1 = _window(lo, counts, cell, np.minimum(A, B) - pad, np.maximum(A, B) + pad)
    nx, ny = int(counts[0]), int(counts[1])
    nz = int(counts[2]) if dim == 3 else 1
    # The closed form decides only cell centres more than margin inside
    # (or outside) the capsule; margin dwarfs its rounding error.
    margin = 1e-9 * (float(np.abs(np.concatenate([lo, lo + counts * cell])).max()) + reach)
    radii = [reach + margin] + ([reach - margin] if reach > margin else [])
    r2 = reach * reach
    # Lines run along x, one per (y row, z slice), in strips of y rows.  A
    # sparse strip (a fine region outline has about 90 cells per step)
    # counts its cells from its sorted +-1 steps, a dense one by a cumsum
    # over an int32 difference array; each chooses before its first block.
    rows, total = max(1, _LINE_STRIP_CELLS // ((nx + 1) * nz)), 0
    for s0 in range(0, ny, rows):
        s1 = min(s0 + rows, ny)
        first = np.maximum(w0[:, 1], s0)
        nrow = np.maximum(np.minimum(w1[:, 1], s1) - first, 0)
        cum = np.cumsum(nrow * (w1[:, 2] - w0[:, 2]) if dim == 3 else nrow)
        cuts = np.searchsorted(cum, np.arange(_SPAN_BLOCK, cum[-1], _SPAN_BLOCK), side="right")
        groups = np.unique(np.concatenate([[0], cuts, [len(cum)]]))
        strip = (s1 - s0) * nz * (nx + 1)
        sparse, keys = _SPARSE_CELLS_PER_SPAN * int(cum[-1]) < strip, []
        diff = None if sparse else np.zeros(strip, dtype=np.int32)
        for g0, g1 in zip(groups[:-1], groups[1:]):
            # one span per (tube, line) pair, about _SPAN_BLOCK of them
            t, j = _spans(first[g0:g1], nrow[g0:g1])
            t = t + g0
            if dim == 3:
                s, k = _spans(w0[t, 2], w1[t, 2] - w0[t, 2])
                t, j = t[s], j[s]
                line = (j - s0) * nz + k
                g = [lo[1] + (j + 0.5) * cell, lo[2] + (k + 0.5) * cell]
            else:
                line = j - s0
                g = [lo[1] + (j + 0.5) * cell]
            da = [gm - A[t, m] for m, gm in enumerate(g, 1)]
            db = [gm - B[t, m] for m, gm in enumerate(g, 1)]
            fa = (A[t, 0] - lo[0]) / cell - 0.5
            ends = [(np.ceil(np.clip(fa + u_lo / cell, -1, nx)).astype(np.int64),
                     np.floor(np.clip(fa + u_hi / cell, -1, nx)).astype(np.int64))
                    for u_lo, u_hi in _line_chords(da, db, B[t, 0] - A[t, 0], W[t],
                                                   lengths[t], radii)]
            # outer cells [o0, o1], trusted inner cells [n0, n1]
            (o0, o1), (n0, n1) = ends if len(ends) == 2 else (ends[0], (nx, -1))
            o0, o1 = np.maximum(o0, w0[t, 0]), np.minimum(o1, w1[t, 0] - 1)
            o1 = np.maximum(o1, o0 - 1)
            n0, n1 = np.maximum(n0, o0), np.minimum(n1, o1)
            empty = n0 > n1
            n0, n1 = np.where(empty, o1 + 1, n0), np.where(empty, o1, n1)
            # the cells of [o0, n0) and (n1, o1] are decided by the
            # distance test itself, its axes summed in the same order
            sl, il = _spans(o0, n0 - o0)
            sr, ir = _spans(n1 + 1, o1 - n1)
            s, i = np.concatenate([sl, sr]), np.concatenate([il, ir])
            ts = t[s]
            d = [lo[0] + (i + 0.5) * cell - A[ts, 0]] + [dm[s] for dm in da]
            tp = np.clip(sum(dm * W[ts, m] for m, dm in enumerate(d)), 0.0, lengths[ts])
            near = sum((dm - tp * W[ts, m]) ** 2 for m, dm in enumerate(d)) <= r2
            cells = line[s][near] * (nx + 1) + i[near]
            base = line[~empty] * (nx + 1)
            up = np.concatenate([base + n0[~empty], cells])
            down = np.concatenate([base + n1[~empty] + 1, cells + 1])
            # an edge crossing its row's centre going down winds +1, going
            # up -1, from the first cell whose centre is at or past it
            c = np.nonzero(t < len(wind))[0]
            c = c[(wind[t[c], 0, 1] > g[0][c]) != (wind[t[c], 1, 1] > g[0][c])]
            (ax, ay), (bx, by) = wind[t[c], 0].T, wind[t[c], 1].T
            xc = ax + (g[0][c] - ay) * (bx - ax) / (by - ay)
            cross = line[c] * (nx + 1) + np.ceil((xc - lo[0]) / cell - 0.5).astype(np.int64)
            if sparse:
                keys += [2 * up + 1, 2 * down, 2 * cross + (ay > by)]
            else:
                # int32 steps like diff's: a scalar step misses add.at's fast path
                np.add.at(diff, np.concatenate([up, down, cross]),
                          np.concatenate([np.repeat(np.int32([1, -1]), len(up)),
                                          np.where(ay > by, 1, -1).astype(np.int32)]))
        total += (_sorted_count(np.concatenate(keys), strip) if sparse
                  else int(np.count_nonzero(np.cumsum(diff, out=diff))))
    return float(total) * cell ** dim


def neighborhood_volume_curve(shape, deltas) -> BoxCountCurve:
    """Measure |N_dK| of shape over the given decreasing deltas.

    shape may be a Region2, a TubeFamily, or an (n, dim) point array.
    Each delta uses its own occupancy grid at pitch delta/4; evaluations
    run through the shared ordered parallel map.
    """
    ds = [float(d) for d in deltas]
    if not ds:
        raise DimError("need at least one delta")
    for d in ds:
        if not (0.0 < d < 1.0):
            raise DimError(f"deltas must lie in (0, 1), got {d}")
    if any(b >= a for a, b in zip(ds, ds[1:])):
        raise DimError("deltas must be strictly decreasing")

    wind, cap = np.zeros((0, 2, 2)), _MAX_CELLS
    if isinstance(shape, Region2):
        wind, cap = _boundary_edges(shape), _SCAN_CELLS
        A, D = wind[:, 0], wind[:, 1] - wind[:, 0]
        lengths = np.hypot(D[:, 0], D[:, 1])
        W, width = D / lengths[:, None], 0.0
    elif isinstance(shape, TubeFamily):
        A, W, lengths, width = shape.anchors, shape.omegas, shape.lengths, shape.delta
    else:
        A = np.asarray(shape, dtype=float)
        if A.ndim != 2 or A.shape[1] not in (2, 3) or len(A) == 0:
            raise DimError("point cloud must be a non-empty (n, 2) or (n, 3) array")
        if not np.all(np.isfinite(A)):
            raise DimError("point cloud must be finite")
        W, lengths, width = np.zeros_like(A), np.zeros(len(A)), 0.0

    # every scale is admitted, on the fill's own points, before any is filled
    pts = np.vstack([A, A + lengths[:, None] * W])
    for d in ds:
        _grid(pts, width + d, d / _CELL_FACTOR, cap)
    vols = map_ordered(lambda d: _capsule_volume(A, W, lengths, width + d, d / _CELL_FACTOR,
                                                 wind, cap), ds)
    return BoxCountCurve(tuple(zip(ds, vols)))


def minkowski_estimate(curve: BoxCountCurve, ambient: int) -> DimensionEstimate:
    """Fit dimension = ambient - slope of log |N_dK| against log d.

    One entry is dropped from each end of the curve before the
    least-squares fit (boundary scales are the least reliable); the
    result is clamped to [0, ambient].
    """
    if ambient not in (1, 2, 3):
        raise DimError(f"ambient dimension must be 1, 2, or 3, got {ambient}")
    if len(curve) < 4:
        raise DimError("dimension fit needs at least 4 curve points")
    used = curve.entries[1:-1]
    x = np.log([d for d, _ in used])
    y = np.log([v for _, v in used])
    slope, intercept = np.polyfit(x, y, 1)
    res = y - (slope * x + intercept)
    residual = float(np.sqrt(np.mean(res ** 2)))
    dimension = min(max(ambient - float(slope), 0.0), float(ambient))
    lx, ly = np.log(curve.deltas), np.log(curve.volumes)
    local = tuple(float(ambient - s) for s in np.diff(ly) / np.diff(lx))
    if len(used) >= 3:
        spread = max(math.sqrt(float(res @ res) / (len(used) - 2)
                               / float(((x - x.mean()) ** 2).sum())),
                     max(local[1:-1]) - min(local[1:-1]))
    else:
        spread = (max(local) - min(local)) / 2
    return DimensionEstimate(dimension, residual, (used[0][0], used[-1][0]),
                             local, spread)


def kakeya_bound_check(curve: BoxCountCurve, epsilon: float) -> KakeyaBoundReport:
    """Evaluate inf |N_dK| / d^eps over the curve.

    The verdict is consistent when the infimum is positive and the
    ratio at the finest scale has not collapsed below half the ratio
    at the coarsest, i.e. no power-law decay is visible in the range.
    """
    if not (0.0 < epsilon <= 1.0):
        raise DimError(f"epsilon must lie in (0, 1], got {epsilon}")
    ratios = tuple(v / d ** epsilon for d, v in curve.entries)
    k = int(np.argmin(ratios))
    c_eps = ratios[k]
    consistent = c_eps > 0.0 and ratios[-1] >= 0.5 * ratios[0]
    return KakeyaBoundReport(epsilon, c_eps, curve.entries[k][0], ratios, consistent)
