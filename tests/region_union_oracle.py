"""Cell-by-cell oracle for boxdim's region fill.

A cell counts when its centre, made an exact rational, lies in some
polygon of the region (closed: `point_in_polygon_closed`), or lies
within delta of an outline edge by the capsule oracle's distance test.
That is the cell-centre rule for N_dK = K together with the points
within d of the outline; no winding count is involved.  Rational-frame
regions only: a sqrt3-frame centre has no rational frame coordinate.
"""

from fractions import Fraction

import numpy as np

from capsule_fill_oracle import capsule_cells
from containment_oracle import point_in_polygon_closed

from kakeyalab import boxdim
from kakeyalab.exactgeom.primitives import Point2
from kakeyalab.exactgeom.scalar import rational


def region_volume(region, delta, cell):
    assert not region.sqrt3, "the oracle takes rational-frame regions"
    edges = boxdim._boundary_edges(region)
    D = edges[:, 1] - edges[:, 0]
    lengths = np.hypot(D[:, 0], D[:, 1])
    lo, occ = capsule_cells(edges[:, 0], D / lengths[:, None], lengths, delta, cell,
                            cap=boxdim._SCAN_CELLS)
    for poly, floats in zip(region.polygons, region.floats()):
        f = np.array(floats)
        i0 = np.maximum(np.floor((f.min(axis=0) - lo) / cell - 1).astype(int), 0)
        i1 = np.minimum(np.ceil((f.max(axis=0) - lo) / cell + 1).astype(int), occ.shape)
        i, j = (a.ravel() for a in np.meshgrid(np.arange(i0[0], i1[0]),
                                               np.arange(i0[1], i1[1]), indexing="ij"))
        i, j = i[~occ[i, j]], j[~occ[i, j]]
        x, y = lo[0] + (i + 0.5) * cell, lo[1] + (j + 0.5) * cell
        # Centres more than 1e-6 from every edge are decided by the float
        # polygon's ray parity, which rounding cannot flip there; the rest
        # by the exact closed test.
        inside, near = np.zeros(len(i), dtype=bool), np.zeros(len(i), dtype=bool)
        for (ax, ay), (bx, by) in zip(f, np.roll(f, -1, axis=0)):
            ex, ey = bx - ax, by - ay
            t = np.clip(((x - ax) * ex + (y - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
            near |= np.hypot(x - ax - t * ex, y - ay - t * ey) <= 1e-6
            with np.errstate(divide="ignore", invalid="ignore"):
                inside ^= ((ay > y) != (by > y)) & (x < ax + (y - ay) * ex / ey)
        occ[i[inside & ~near], j[inside & ~near]] = True
        for ci, cj, cx, cy in zip(i[near], j[near], x[near], y[near]):
            centre = Point2(rational(Fraction(float(cx))), rational(Fraction(float(cy))))
            occ[ci, cj] = point_in_polygon_closed(centre, poly)
    return float(occ.sum()) * cell ** 2
