"""Pair sampler without the line bound, kept as the test oracle for the
essentially-distinct check.

This is the check the package used before it cleared pairs by a
closed-form bound: every pair that passes the core-distance prefilter
is sampled, in blocks of 2^21 / samples_per_pair pairs, block k drawing
its uniform arrays in full from make_rng(seed, k).  The package draws
only the rows of the pairs it samples, at the same Philox counters, so
each pair it samples sees the same samples here.
"""

import math

import numpy as np

from kakeyalab.rng import make_rng
from kakeyalab.tubelab.checks import DistinctReport, PairOverlap, _perp_frame
from kakeyalab.tubelab.core import _segment_distance_batch, in_tube


def essentially_distinct_check(fam, samples_per_pair=64, seed=0):
    n = len(fam)
    d = fam.dim
    A, W, L = fam.anchors, fam.omegas, fam.lengths
    B = A + L[:, None] * W
    cut = 2.0 * fam.delta + 1e-12

    keep = []
    block_rows = max(1, (1 << 18) // max(n, 1))
    for i0 in range(0, n, block_rows):
        rows = np.arange(i0, min(i0 + block_rows, n))
        ii, jj = np.nonzero(np.arange(n) > rows[:, None])
        ii += i0
        near = _segment_distance_batch(A[ii], B[ii], A[jj], B[jj]) <= cut
        keep.append(np.stack((ii[near], jj[near])))
    I, J = np.concatenate(keep, axis=1)

    flagged = []
    S = samples_per_pair
    pair_block = max(1, (1 << 21) // max(S, 1))
    for bidx, p0 in enumerate(range(0, len(I), pair_block)):
        bi = I[p0 : p0 + pair_block]
        bj = J[p0 : p0 + pair_block]
        rng = make_rng(seed, bidx)
        t = rng.uniform(0.0, 1.0, size=(len(bi), S)) * L[bi][:, None]
        pts = [a[:, None] + t * w[:, None] for a, w in zip(A[bi].T, W[bi].T)]
        if d == 2:
            (e1,) = _perp_frame(W[bi])
            r = fam.delta * rng.uniform(-1.0, 1.0, size=(len(bi), S))
            pts = [p + r * e[:, None] for p, e in zip(pts, e1.T)]
        else:
            e1, e2 = _perp_frame(W[bi])
            rad = fam.delta * np.sqrt(rng.uniform(0.0, 1.0, size=(len(bi), S)))
            ang = rng.uniform(0.0, 2.0 * math.pi, size=(len(bi), S))
            x, y = rad * np.cos(ang), rad * np.sin(ang)
            pts = [p + x * u[:, None] + y * v[:, None]
                   for p, u, v in zip(pts, e1.T, e2.T)]
        hit = in_tube(pts, A[bj].T[:, :, None], W[bj].T[:, :, None],
                      L[bj][:, None], fam.delta)
        phat = hit.mean(axis=1)
        se = np.sqrt(phat * (1.0 - phat) / S)
        bad = phat > 0.5 + 3.0 * se
        for k in np.flatnonzero(bad):
            flagged.append(
                PairOverlap(int(bi[k]), int(bj[k]), float(phat[k]), float(se[k]))
            )
    return DistinctReport(n * (n - 1) // 2, len(I), S, tuple(flagged))
