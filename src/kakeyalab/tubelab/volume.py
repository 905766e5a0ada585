"""Union volume of a tube family, by grid occupancy or Monte Carlo.

Both methods reduce to point-in-union queries.  Tubes are bucketed
into a coarse spatial hash along their core segments, built in one pass
over all cores in numpy blocks; each query point tests only nearby
tubes, nearest first, and stops at its first containing tube.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import admit_samples, mc_hit_fraction
from .core import (
    TubeError,
    TubeFamily,
    VolumeEstimate,
    _axis_dot,
    family_bbox,
    family_total_volume,
    in_tube,
)

__all__ = ["union_volume", "kakeya_ratio", "TubeIndex", "admit_grid", "admit_volume"]


# Candidate (point, tube) pairs tested per batch of a query; the
# kernel's per-axis temporaries stay cache-sized.
_PAIR_BATCH = 1 << 15
# Core walk points per block of the index build: a block's neighbour
# keys, their sort and the gap temporaries stay a few MiB.
_WALK_BLOCK = 1 << 16
# Most cells a grid estimate fills: the cap boxdim puts on a family's grid.
_MAX_GRID_CELLS = 1 << 27


def admit_grid(resolution: int, dim: int) -> None:
    """Refuse a grid under 2 cells a side or of more than _MAX_GRID_CELLS
    cells, before any is allocated."""
    if resolution < 2:
        raise TubeError("resolution must be at least 2")
    if resolution ** dim > _MAX_GRID_CELLS:
        raise TubeError(f"a {dim}-D grid at resolution {resolution:,} has "
                        f"{resolution ** dim:,} cells, over the limit of {_MAX_GRID_CELLS:,}")


def admit_volume(method: str, samples: int, resolution: int, dim: int) -> None:
    """Refuse union_volume's inputs before any family, sample or grid exists."""
    if method == "monte-carlo":
        if samples < 1:
            raise TubeError("need at least one sample")
        admit_samples(samples)
    elif method == "grid":
        admit_grid(resolution, dim)
    else:
        raise TubeError(f"unknown method {method!r}")


class TubeIndex:
    """Spatial hash of a family for batched point-in-union queries.

    Lattice cell k holds candidate tubes members[starts[k]:starts[k + 1]],
    nearest core segment to the cell centre first.  A query tests each
    point's candidates in that order and stops at the first hit.  The
    build walks all cores at once, a block of whole tubes at a time.
    """

    def __init__(self, fam: TubeFamily):
        self.dim = fam.dim
        self.delta = fam.delta
        # Per-axis columns: 1-D gathers are several times cheaper than rows.
        self.anchors = fam.anchors.T.copy()
        self.omegas = fam.omegas.T.copy()
        self.lengths = fam.lengths
        self.lo, self.hi = family_bbox(fam)
        span = float(np.max(self.hi - self.lo))
        # Cells no finer than a tube width; at most 2^18 of them.
        self.h = max(2.0 * fam.delta, span / {2: 512, 3: 64}[self.dim])
        self.shape = np.maximum(
            1, np.ceil((self.hi - self.lo) / self.h - 1e-12).astype(int)
        )
        # Walk each core at spacing h/2 and mark the 3^dim cells around
        # each walk point's cell.  One cell is enough: h >= 2 delta, so
        # every tube point lies within delta + h/4 <= 3h/4 of some walk
        # point along each axis.  Whole tubes go in blocks of _WALK_BLOCK
        # walk points (one tube may exceed it).
        n = np.ceil(self.lengths / (self.h / 2.0)).astype(np.int64) + 1
        cuts = np.searchsorted(np.cumsum(n), np.arange(_WALK_BLOCK, n.sum(), _WALK_BLOCK), "right")
        bounds = np.unique(np.r_[0, cuts, len(n)])
        keys, tubes = (np.concatenate(c) for c in zip(*[
            self._block_pairs(i, n[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]))
        self.members = tubes[np.argsort(keys, kind="stable")]
        self.starts = np.r_[0, np.cumsum(np.bincount(keys >> 32, minlength=np.prod(self.shape)))]

    def _block_pairs(self, first: int, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sort keys and int32 tube ids of the (tube, cell) pairs of tubes
        first, first + 1, ... with n walk points each, tube-major with cells
        ascending.  A key is the cell above the float32 bits of the squared
        distance from the cell centre to the core segment, summed in axis
        order: nearest first within a cell, ties in tube order."""
        lengths = self.lengths[first:first + len(n)]
        tube = np.repeat(np.arange(first, first + len(n)), n)
        end = np.cumsum(n) - 1
        # np.linspace(0, length, n): k * (length / (n - 1)), the last point length
        t = (np.arange(len(tube)) - np.repeat(end - n + 1, n)) * np.repeat(lengths / (n - 1), n)
        t[end] = lengths
        cell = self._cell_ids(np.stack([a[tube] + t * w[tube]
                                        for a, w in zip(self.anchors, self.omegas)], axis=1))
        # Each axis index is monotone in t, so a walk never returns to a
        # cell it left: dropping consecutive repeats leaves each cell once.
        new = np.r_[True, (tube[1:] != tube[:-1]) | (cell[1:] != cell[:-1])]
        # Neighbours on the lattice padded by one cell, so none wraps.
        pad = (len(self.lengths), *(self.shape + 2))
        stride = np.r_[np.cumprod(pad[:0:-1])[::-1], 1]
        offs = np.indices([3] * self.dim).reshape(self.dim, -1).T @ stride[1:] - stride[1:].sum()
        ix = np.unravel_index(cell[new], self.shape)
        key = np.sort((_axis_dot([tube[new]] + [x + 1 for x in ix], stride)[:, None] + offs).ravel())
        tube, *ix = np.unravel_index(key[np.r_[True, key[1:] != key[:-1]]], pad)
        inside = np.all([(x >= 1) & (x <= m) for x, m in zip(ix, self.shape)], axis=0)
        tube, ix = tube[inside], [x[inside] - 1 for x in ix]
        rel = [lo + (x + 0.5) * self.h - a[tube] for lo, x, a in zip(self.lo, ix, self.anchors)]
        s = np.clip(_axis_dot(rel, [w[tube] for w in self.omegas]), 0.0, self.lengths[tube])
        perp = [r - s * w[tube] for r, w in zip(rel, self.omegas)]
        gap = _axis_dot(perp, perp).astype(np.float32).view(np.uint32)
        return (np.ravel_multi_index(ix, self.shape) << 32) | gap, tube.astype(np.int32)

    @property
    def buckets(self) -> dict[int, np.ndarray]:
        """Candidate tube ids of every non-empty cell."""
        return {int(k): self.members[self.starts[k]:self.starts[k + 1]]
                for k in np.flatnonzero(np.diff(self.starts))}

    def _cell_ids(self, pts: np.ndarray) -> np.ndarray:
        ix = np.clip(((pts - self.lo) / self.h).astype(int), 0, self.shape - 1)
        return np.ravel_multi_index(ix.T, self.shape)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask over rows of pts: inside the union of tubes.

        Candidate slots are tested in windows of 1, 2, 4, ... per point;
        a point drops out after the window holding its first hit.
        """
        out = np.zeros(len(pts), dtype=bool)
        ids = self._cell_ids(pts)
        first = self.starts[ids]
        count = self.starts[ids + 1] - first
        p_ax = pts.T.copy()
        live = np.flatnonzero(count)
        k = 0
        width = 1
        while len(live):
            take = np.minimum(count[live] - k, width)
            ends = np.cumsum(take)
            a = 0
            while a < len(live):
                base = ends[a - 1] if a else 0
                b = max(a + 1, int(np.searchsorted(ends, base + _PAIR_BATCH, side="right")))
                c = take[a:b]
                row = np.repeat(live[a:b], c)
                # a row's window sits at first[row] + k + 0, 1, ..., c - 1
                slot = np.arange(len(row)) + np.repeat(first[live[a:b]] + k - ends[a:b] + base + c, c)
                tube = self.members[slot]
                hit = in_tube([p[row] for p in p_ax], [q[tube] for q in self.anchors],
                              [w[tube] for w in self.omegas], self.lengths[tube], self.delta)
                out[row[hit]] = True
                a = b
            k += width
            width *= 2
            live = live[~out[live] & (count[live] > k)]
        return out


def _mc_volume(fam: TubeFamily, samples: int, seed: int) -> VolumeEstimate:
    index = TubeIndex(fam)
    lo, hi = index.lo, index.hi
    box = float(np.prod(hi - lo))

    def hits(rng, size: int) -> int:
        pts = rng.uniform(0.0, 1.0, size=(size, fam.dim)) * (hi - lo) + lo
        return int(index.contains(pts).sum())

    p = mc_hit_fraction(hits, samples, seed)
    se = box * math.sqrt(p * (1.0 - p) / samples)
    return VolumeEstimate(box * p, se, "monte-carlo", samples=samples)


def _grid_volume(fam: TubeFamily, resolution: int) -> VolumeEstimate:
    index = TubeIndex(fam)
    lo, hi = index.lo, index.hi
    h = float(np.max(hi - lo)) / resolution
    shape = np.maximum(1, np.round((hi - lo) / h).astype(int))
    axes = [lo[d] + (np.arange(shape[d]) + 0.5) * h for d in range(fam.dim)]
    grid = np.zeros(tuple(shape), dtype=bool)
    # Stream slices along the first axis; a full 3D mesh is too large.
    tail = [m.ravel() for m in np.meshgrid(*axes[1:], indexing="ij")]
    for i, x0 in enumerate(axes[0]):
        pts = np.stack([np.full(len(tail[0]), x0)] + tail, axis=1)
        grid[i] = index.contains(pts).reshape(grid.shape[1:])
    cell = h**fam.dim
    value = float(grid.sum()) * cell
    # Discretization band: half a cell of volume per boundary face.
    faces = 0
    for d in range(fam.dim):
        faces += int(np.sum(np.diff(grid, axis=d) != 0))
        sl = [slice(None)] * fam.dim
        sl[d] = [0, -1]
        faces += int(grid[tuple(sl)].sum())
    return VolumeEstimate(value, 0.5 * faces * cell, "grid", resolution=resolution)


def union_volume(
    fam: TubeFamily,
    method: str = "monte-carlo",
    samples: int = 1_000_000,
    resolution: int = 256,
    seed: int = 0,
) -> VolumeEstimate:
    """Volume of the union of the family's tubes.

    grid: occupied-cell count on an axis lattice over the bounding box,
    with the discretization band reported as the error.  monte-carlo:
    hit fraction of uniform box samples, with the binomial std error.
    """
    admit_volume(method, samples, resolution, fam.dim)
    if method == "grid":
        return _grid_volume(fam, resolution)
    return _mc_volume(fam, samples, seed)


def kakeya_ratio(fam: TubeFamily, estimate: VolumeEstimate) -> float:
    """Union volume divided by the sum of individual tube volumes."""
    return estimate.value / family_total_volume(fam)
