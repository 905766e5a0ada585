"""Exact union of polygon collections by a kinetic slab sweep.

Breakpoints are every edge endpoint x and every x where two edges cross
inside both spans.  In an open slab between breakpoints the active
(non-vertical) edges do not cross, so their order by height at the slab
midpoint holds across the slab; edges on one line keep their insertion
order.  The sweep keeps that order in one list (Bentley & Ottmann 1979):
at a breakpoint it deletes the edges that end there, reverses each run
of edges that cross there (lines leave in reverse slope order, and edges
on one line stay together) and binary-inserts the edges that start there.

Coverage is a winding count: an edge weighs +1 when its polygon lies
above it and -1 when below, so a running sum kept beside the edge list
counts the polygons over each gap.  Only the positions between the
lowest and the highest change are re-walked.  Each maximal covered run
whose bounding lines differ is a trapezoid, merged across slabs while
both lines continue.  Pieces and area are exact.

A starting edge is placed by exact heights at the slab ends.  Every
crossing is decided exactly: each pair of edges whose boxes touch has
its lines' crossing abscissa formed as an int ratio and compared with
both spans.  Doubles only cull boxes and pre-sort breakpoints
(ratio_sorted); both are int quotients, correctly rounded hence
monotone, so a double box touches whenever the exact box does.

Exact work is on ints.  Inputs are simple polygons of frame points,
plain rationals (u, y), validated where they enter (Region2); the sweep
scales them all by one common denominator D (integer_frame), so each
edge lies on a line Y = (a X + b) / k with int a, b and k > 0 in lowest
terms, which is also its line id.  A breakpoint is a reduced ratio
(n, d) of ints, and two heights at it compare by cross-multiplying.
Rationals are built only for the convex CCW pieces out, in the input's
frame and correct by construction, and for their area.
"""

from __future__ import annotations

import operator
from itertools import groupby
from math import gcd

import numpy as np

from .primitives import Point2, integer_frame, ratio_sorted, reduced, signed_area2
from .scalar import _Q


class _Edge:
    __slots__ = ("px", "py", "qx", "qy", "a", "b", "k", "line_id", "w",
                 "i0", "i1", "pos", "top")

    def __init__(self, p, q, w: int):
        self.px, self.py = p
        self.qx, self.qy = q
        k = q[0] - p[0]
        a = q[1] - p[1]
        b = p[1] * k - a * p[0]
        g = gcd(a, b, k)
        self.a, self.b, self.k = a // g, b // g, k // g  # Y = (a X + b) / k
        self.w = w  # winding weight: +1 if its polygon lies above the edge
        self.top = None  # key of the gap this edge tops in the current slab


class _Chain:
    __slots__ = ("s0", "s_last", "bot_e", "top_e")

    def __init__(self, s, bot_e, top_e):
        self.s0 = s
        self.s_last = None  # last slab of the chain; None while it is open
        self.bot_e = bot_e
        self.top_e = top_e


_i0 = operator.attrgetter("i0")
_i1 = operator.attrgetter("i1")
_line = operator.attrgetter("line_id")


def overlay(groups):
    """Union of every polygon of every group.

    groups: list of polygon lists (each polygon a list of Point2 with
    rational coordinates; simple).

    Returns (pieces, area): pieces a list of convex vertex lists (CCW,
    pairwise interior-disjoint trapezoids/triangles), area their exact
    rational sum.
    """
    D, polys = integer_frame([poly for group in groups for poly in group])
    edges = []
    xs_seen = {}  # breakpoint (n, d) -> both edges of each crossing there
    for poly in polys:
        orient = 1 if signed_area2(poly) > 0 else -1
        marks = [xs_seen.setdefault((v[0], 1), []) for v in poly]
        n = len(poly)
        for i in range(n):
            j = (i + 1) % n
            if marks[i] is marks[j]:
                continue  # vertical edges only contribute breakpoints
            if poly[i][0] < poly[j][0]:
                e = _Edge(poly[i], poly[j], orient)
                e.i0, e.i1 = marks[i], marks[j]
            else:
                e = _Edge(poly[j], poly[i], -orient)
                e.i0, e.i1 = marks[j], marks[i]
            edges.append(e)

    # canonical line ids (shared by collinear edges)
    line_ids = {}
    for e in edges:
        e.line_id = line_ids.setdefault((e.a, e.b, e.k), len(line_ids))

    if len(xs_seen) < 2 or not edges:
        return [], _Q(0)
    _collect_crossings(edges, xs_seen, D)
    xs = ratio_sorted(xs_seen)
    crossing = [xs_seen[x] for x in xs]
    del xs_seen
    # i0, i1 held the breakpoint lists of the edge's ends; now their indices
    index = {id(c): s for s, c in enumerate(crossing)}
    for e in edges:
        e.i0 = index[id(e.i0)]
        e.i1 = index[id(e.i1)]
    del index
    starts = sorted(edges, key=_i0)
    ends = sorted(edges, key=_i1)
    nedges = len(edges)

    pieces = []
    open_chains = {}
    area2 = _Q(0)  # in the integer frame: D^2 times the frame's
    pts = {}  # (breakpoint index, line id) -> the piece vertex there

    def vertex(s, e, h):
        """The point of e at xs[s] = (n, d), in the input's frame; its
        height there is h / (e.k d)."""
        pt = pts.get((s, e.line_id))
        if pt is None:
            n, d = xs[s]
            pt = pts[s, e.line_id] = Point2(_Q(n, d * D), _Q(h, e.k * d * D))
        return pt

    def close(key):
        nonlocal area2
        ch = open_chains.pop(key)
        s0, s1 = ch.s0, ch.s_last + 1
        (n0, d0), (n1, d1) = xs[s0], xs[s1]
        bot, top = ch.bot_e, ch.top_e
        hb0, ht0 = bot.a * n0 + bot.b * d0, top.a * n0 + top.b * d0
        hb1, ht1 = bot.a * n1 + bot.b * d1, top.a * n1 + top.b * d1
        # heights top minus bottom, times bot.k top.k d at each end
        g0, g1 = ht0 * bot.k - hb0 * top.k, ht1 * bot.k - hb1 * top.k
        area2 += _Q((n1 * d0 - n0 * d1) * (g0 * d1 + g1 * d0),
                    bot.k * top.k * d0 * d0 * d1 * d1)
        bl, br = vertex(s0, bot, hb0), vertex(s1, bot, hb1)
        tr, tl = vertex(s1, top, ht1), vertex(s0, top, ht0)
        if not g0:
            pieces.append([bl, br, tr])
        elif not g1:
            pieces.append([bl, br, tl])
        else:
            pieces.append([bl, br, tr, tl])

    acts = []   # active edges in slab order
    covs = [0]  # covs[j]: coverage of the gap below acts[j]; covs[-1] is 0
    si = ei = 0
    for s, x in enumerate(xs):
        lo, hi = len(acts), -1  # the changed window [lo, hi), empty so far
        old = []  # keys of gaps whose top edge leaves or moves
        dels = []
        while ei < nedges and ends[ei].i1 == s:
            e = ends[ei]
            ei += 1
            dels.append(e.pos)
            if e.top is not None:
                old.append(e.top)
        if dels:
            dels.sort(reverse=True)
            for p in dels:
                del acts[p]
                del covs[p + 1]
            lo, hi = dels[-1], dels[0] - len(dels) + 1
            for j in range(lo, len(acts)):
                acts[j].pos = j
        if crossing[s]:
            for p0, p1 in _runs(acts, crossing[s]):
                blocks = [list(g) for _, g in groupby(acts[p0:p1], key=_line)]
                acts[p0:p1] = [e for blk in reversed(blocks) for e in blk]
                for j in range(p0, p1):
                    acts[j].pos = j
                lo, hi = min(lo, p0), max(hi, p1)
        if si < nedges and starts[si].i0 == s:
            (n0, d0), (n1, d1) = x, xs[s + 1]
            while si < nedges and starts[si].i0 == s:
                e = starts[si]
                si += 1
                # e goes below f iff it is lower at x, or level there and
                # lower at the slab's right end (no two active edges cross
                # inside the slab)
                h0 = e.a * n0 + e.b * d0
                h1 = e.a * n1 + e.b * d1
                a, b = 0, len(acts)
                while a < b:
                    mid = (a + b) // 2
                    f = acts[mid]
                    c = h0 * f.k - (f.a * n0 + f.b * d0) * e.k
                    if not c:
                        c = h1 * f.k - (f.a * n1 + f.b * d1) * e.k
                    if c < 0:
                        b = mid
                    else:
                        a = mid + 1
                acts.insert(a, e)
                covs.insert(a + 1, 0)
                lo, hi = min(lo, a), (hi + 1 if a < hi else a + 1)
            for j in range(lo, len(acts)):
                acts[j].pos = j
        if hi < lo:
            continue

        # re-walk the changed window; gaps outside it carry on unchanged
        c = covs[lo]
        zeros = []
        for j in range(lo, hi):
            e = acts[j]
            if e.top is not None:
                old.append(e.top)
                e.top = None
            c += e.w
            covs[j + 1] = c
            if not c:
                zeros.append(j + 1)
        if covs[lo] and not old and not zeros:
            continue  # the window lies inside one covered run, as before
        # widen to the enclosing uncovered gaps (covs[0] is the zero below)
        zs = [lo - covs[lo::-1].index(0)] + zeros
        b = covs.index(0, hi)
        if b > hi:
            t = acts[b - 1]
            if t.top is not None:
                old.append(t.top)
                t.top = None
            zs.append(b)
        for key in old:
            open_chains[key].s_last = s - 1
        for z0, z1 in zip(zs, zs[1:]):
            bottom = acts[z0]
            top = acts[z1 - 1]
            if bottom.line_id == top.line_id:
                continue  # zero height: both bounds on one line
            key = (bottom.line_id, top.line_id)
            top.top = key
            ch = open_chains.get(key)
            if ch is not None and ch.s_last == s - 1:
                ch.s_last = None  # present in the previous slab: extend
            else:
                if ch is not None:
                    close(key)
                open_chains[key] = _Chain(s, bottom, top)

    for key in list(open_chains):
        close(key)
    return pieces, area2 / (2 * D * D)


def _runs(acts, cr):
    """Position ranges [p0, p1) of the runs of edges crossing at one x.

    cr lists crossing pairs flat.  Every two lines of a run cross there,
    so neighbours in one run are collinear or a listed pair; neighbours
    in different runs, at different heights, are neither.
    """
    if len(cr) == 2:  # the common case: one crossing, two neighbours
        p = min(cr[0].pos, cr[1].pos)
        return [(p, p + 2)]
    crossed = set(zip(cr[::2], cr[1::2]))
    ps = sorted({e.pos for e in cr})
    runs = []
    p0 = ps[0]
    for p, q in zip(ps, ps[1:] + [None]):
        if q == p + 1:
            a, b = acts[p], acts[q]
            if a.line_id == b.line_id or (a, b) in crossed or (b, a) in crossed:
                continue
        runs.append((p0, p + 1))
        p0 = q
    return runs


def _collect_crossings(edges, xs_seen, D):
    """Add both edges of every crossing inside two spans to xs_seen[x]."""
    minx, maxx, ya, yb, lid = np.array([
        (e.px / D, e.qx / D, e.py / D, e.qy / D, e.line_id) for e in edges]).T
    miny = np.minimum(ya, yb)
    maxy = np.maximum(ya, yb)
    for i, e in enumerate(edges[:-1]):
        j0 = i + 1
        js = j0 + np.nonzero(
            (minx[j0:] <= maxx[i])
            & (maxx[j0:] >= minx[i])
            & (miny[j0:] <= maxy[i])
            & (maxy[j0:] >= miny[i])
            & (lid[j0:] != lid[i])
        )[0]
        a, b, k, px, qx = e.a, e.b, e.k, e.px, e.qx
        for j in js.tolist():
            f = edges[j]
            d = a * f.k - f.a * k
            if not d:
                continue  # parallel lines
            n = f.b * k - b * f.k  # the lines meet at X = n/d
            if d < 0:
                n, d = -n, -d
            if px * d < n < qx * d and f.px * d < n < f.qx * d:
                xs_seen.setdefault(reduced(n, d), []).extend((e, f))
