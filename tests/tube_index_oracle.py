"""Per-tube index build, kept as the test oracle for TubeIndex.

This is how `TubeIndex.__init__` filled its cells before it walked every
core in numpy blocks: one call per tube, each walking the core with
np.linspace, taking np.unique of the walk's cells, adding the 3^dim
neighbours on the unpadded lattice with a bounds mask and taking
np.unique again.  It reuses the index's lattice (lo, h, shape) and tube
columns, which the block build did not change.
"""

import math

import numpy as np

from kakeyalab.tubelab.core import TubeFamily, _axis_dot
from kakeyalab.tubelab.volume import TubeIndex


def _cells_near_tube(index: TubeIndex, a, omega, length) -> np.ndarray:
    step = index.h / 2.0
    n = int(math.ceil(length / step)) + 1
    pts = a[None, :] + np.linspace(0.0, length, n)[:, None] * omega[None, :]
    base = np.unique(index._cell_ids(pts))
    base = np.stack(np.unravel_index(base, index.shape), axis=1)
    offs = np.stack(
        np.meshgrid(*([np.arange(-1, 2)] * index.dim), indexing="ij"), axis=-1
    ).reshape(-1, index.dim)
    cells = (base[:, None, :] + offs[None, :, :]).reshape(-1, index.dim)
    cells = cells[((cells >= 0) & (cells < index.shape)).all(axis=1)]
    return np.unique(np.ravel_multi_index(cells.T, index.shape))


def index_arrays(index: TubeIndex, fam: TubeFamily) -> tuple[np.ndarray, np.ndarray]:
    """members and starts of the per-tube build on index's lattice."""
    cells = [_cells_near_tube(index, *tube).astype(np.int32)
             for tube in zip(fam.anchors, fam.omegas, fam.lengths)]
    tube = np.repeat(np.arange(len(cells), dtype=np.int32), [len(c) for c in cells])
    cells = np.concatenate(cells)
    rel = [lo + (ix + 0.5) * index.h - a[tube] for lo, ix, a in
           zip(index.lo, np.unravel_index(cells, index.shape), index.anchors)]
    s = np.clip(_axis_dot(rel, [w[tube] for w in index.omegas]), 0.0, index.lengths[tube])
    perp = [r - s * w[tube] for r, w in zip(rel, index.omegas)]
    gap = _axis_dot(perp, perp).astype(np.float32).view(np.uint32)
    members = tube[np.argsort((cells.astype(np.int64) << 32) | gap, kind="stable")]
    starts = np.r_[0, np.cumsum(np.bincount(cells, minlength=np.prod(index.shape)))]
    return members, starts
