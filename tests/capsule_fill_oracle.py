"""Per-tube box fill, kept as the test oracle for boxdim's row spans.

This is the fill `boxdim._capsule_volume` used before it worked row by
row: one bool grid over the whole bounding box, and for each tube the
distance to its core segment evaluated at every cell centre of the
tube's padded bounding box.
"""

import numpy as np

from kakeyalab.boxdim import _MAX_CELLS, _axes, _window


def capsule_cells(A: np.ndarray, W: np.ndarray, lengths: np.ndarray,
                  reach: float, cell: float, cap: int = _MAX_CELLS):
    """Grid origin, and the bool grid of the cells whose centres lie
    within reach of a segment A[i] + t W[i], 0 <= t <= lengths[i]."""
    dim = A.shape[1]
    B = A + lengths[:, None] * W
    ends = np.vstack([A, B])
    pad = reach + cell
    lo, counts = _axes(ends.min(axis=0) - pad, ends.max(axis=0) + pad, cell, cap)
    occ = np.zeros(tuple(counts), dtype=bool)
    r2 = reach * reach
    for a, w, length, b in zip(A, W, lengths, B):
        i0, i1 = _window(lo, counts, cell, np.minimum(a, b) - pad, np.maximum(a, b) + pad)
        axes = [lo[k] + (np.arange(i0[k], i1[k]) + 0.5) * cell for k in range(dim)]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        t = np.clip(sum((g - c) * e for g, c, e in zip(grids, a, w)), 0.0, length)
        dist2 = sum((g - c - t * e) ** 2 for g, c, e in zip(grids, a, w))
        occ[tuple(map(slice, i0, i1))] |= dist2 <= r2
    return lo, occ


def capsule_volume(A: np.ndarray, W: np.ndarray, lengths: np.ndarray,
                   reach: float, cell: float) -> float:
    """Volume of the cells whose centres lie within reach of a segment
    A[i] + t W[i], 0 <= t <= lengths[i]."""
    return float(capsule_cells(A, W, lengths, reach, cell)[1].sum()) * cell ** A.shape[1]
