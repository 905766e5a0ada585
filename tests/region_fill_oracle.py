"""Whole-grid region fill, kept as the test oracle for boxdim's strips.

This is the fill `boxdim._region_volume` used before it worked strip by
strip: one int8 winding grid and one bool dilation grid over the whole
bounding box, the outline stamped in, then one OR pass per offset of
the digital disc.  Depths of 128 or more wrap in int8, so compare only
on inputs shallower than that.
"""

import math

import numpy as np

from kakeyalab.boxdim import _SCAN_CELLS, _axes


def region_volume(polys, bedges, delta, cell):
    verts = np.vstack(polys)
    pad = delta + cell
    lo, counts = _axes(verts.min(axis=0) - pad, verts.max(axis=0) + pad, cell,
                       cap=_SCAN_CELLS)
    nx, ny = int(counts[0]), int(counts[1])
    # Winding count (int8: depths up to 127): a CCW edge crossing a row
    # downward adds 1, upward -1.
    wind = np.zeros((nx, ny), dtype=np.int8)
    for V in polys:
        for (ax, ay), (bx, by) in zip(V, np.roll(V, -1, axis=0)):
            if ay == by:
                continue
            ylo, yhi = (ay, by) if ay < by else (by, ay)
            j0 = max(int(math.floor((ylo - lo[1]) / cell - 0.5)), 0)
            j1 = min(int(math.ceil((yhi - lo[1]) / cell + 0.5)), ny)
            if j0 >= j1:
                continue
            yc = lo[1] + (np.arange(j0, j1) + 0.5) * cell
            m = (ay > yc) != (by > yc)
            if not m.any():
                continue
            rows = np.nonzero(m)[0] + j0
            xc = ax + (yc[m] - ay) * (bx - ax) / (by - ay)
            ix = np.ceil((xc - lo[0]) / cell - 0.5).astype(np.int64)
            keep = ix < nx
            np.add.at(wind, (np.clip(ix[keep], 0, nx - 1), rows[keep]),
                      1 if ay > by else -1)
    np.add.accumulate(wind, axis=0, out=wind)
    np.clip(wind, 0, 1, out=wind)
    inside = wind.view(bool)
    # stamp the outline so slivers thinner than a cell still register
    for (a, b) in bedges:
        n = int(np.hypot(b[0] - a[0], b[1] - a[1]) / (0.5 * cell)) + 2
        t = np.linspace(0.0, 1.0, n)
        ix = ((a[0] + t * (b[0] - a[0]) - lo[0]) / cell - 0.5).round().astype(np.int64)
        iy = ((a[1] + t * (b[1] - a[1]) - lo[1]) / cell - 0.5).round().astype(np.int64)
        inside[np.clip(ix, 0, nx - 1), np.clip(iy, 0, ny - 1)] = True
    r = delta / cell
    occ = np.zeros_like(inside)
    rr = int(math.floor(r))
    for dx in range(-rr, rr + 1):
        for dy in range(-rr, rr + 1):
            if dx * dx + dy * dy > r * r * (1 + 1e-12):
                continue
            occ[max(dx, 0):nx + min(dx, 0), max(dy, 0):ny + min(dy, 0)] |= \
                inside[max(-dx, 0):nx + min(-dx, 0), max(-dy, 0):ny + min(-dy, 0)]
    return float(occ.sum()) * cell ** 2
