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

A starting edge is placed by exact heights at the slab ends.  One
certified float filter keeps exact arithmetic off the crossing search,
with a margin of 1e-13 of magnitude against rounding near 1e-15: a
double crossing abscissa with a propagated error bound drops the pairs
that cannot cross inside both spans and accepts the pairs that certainly
do; the rest compare exact abscissas with spans.  The exact abscissa of
each accepted crossing is still formed, as the breakpoint key.
Inputs are simple polygons of frame points, plain rationals (u, y),
validated where they enter (Region2); the convex CCW pieces out are
correct by construction and taken as built, in the same frame.
"""

from __future__ import annotations

import operator
from itertools import groupby

import numpy as np

from .primitives import Point2, signed_area2
from .scalar import _Q

_MARGIN = 1e-13
_TINY = 1e-280


class _Edge:
    __slots__ = ("px", "py", "qx", "qy", "slope", "icept", "line_id", "w",
                 "i0", "i1", "pos", "top")

    def __init__(self, p: Point2, q: Point2, w: int):
        self.px, self.py = p.x, p.y
        self.qx, self.qy = q.x, q.y
        self.slope = (q.y - p.y) / (q.x - p.x)
        self.icept = p.y - self.slope * p.x
        self.w = w  # winding weight: +1 if its polygon lies above the edge
        self.top = None  # key of the gap this edge tops in the current slab


def _exact_y(e: _Edge, x):
    return e.icept + e.slope * x


def _below(a: _Edge, b: _Edge, x0, x1) -> bool:
    """Is a strictly below b in the open slab (x0, x1)?  No two active
    edges cross there."""
    ya = _exact_y(a, x0)
    yb = _exact_y(b, x0)
    if ya != yb:
        return ya < yb
    return _exact_y(a, x1) < _exact_y(b, x1)


class _Chain:
    __slots__ = ("s0", "s_last", "yb_l", "yt_l", "bot_e", "top_e")

    def __init__(self, s, yb_l, yt_l, bot_e, top_e):
        self.s0 = s
        self.s_last = None  # last slab of the chain; None while it is open
        self.yb_l = yb_l
        self.yt_l = yt_l
        self.bot_e = bot_e
        self.top_e = top_e


_i0 = operator.attrgetter("i0")
_i1 = operator.attrgetter("i1")
_line = operator.attrgetter("line_id")
_key = operator.itemgetter(0)


def overlay(groups):
    """Union of every polygon of every group.

    groups: list of polygon lists (each polygon a list of Point2 with
    rational coordinates; simple).

    Returns (pieces, area): pieces a list of convex vertex lists (CCW,
    pairwise interior-disjoint trapezoids/triangles), area their exact
    rational sum.
    """
    edges = []
    xs_seen = {}  # breakpoint abscissa -> both edges of each crossing there
    for polys in groups:
        for poly in polys:
            orient = 1 if signed_area2(poly) > 0 else -1
            marks = [xs_seen.setdefault(v.x, []) for v in poly]
            n = len(poly)
            for i in range(n):
                j = (i + 1) % n
                if marks[i] is marks[j]:
                    continue  # vertical edges only contribute breakpoints
                if poly[i].x < poly[j].x:
                    e = _Edge(poly[i], poly[j], orient)
                    e.i0, e.i1 = marks[i], marks[j]
                else:
                    e = _Edge(poly[j], poly[i], -orient)
                    e.i0, e.i1 = marks[j], marks[i]
                edges.append(e)

    # canonical line ids (shared by collinear edges)
    line_ids = {}
    for e in edges:
        e.line_id = line_ids.setdefault((e.slope, e.icept), len(line_ids))

    if len(xs_seen) < 2 or not edges:
        return [], _Q(0)
    _collect_crossings(edges, xs_seen)
    items = sorted(xs_seen.items(), key=lambda it: float(it[0]))
    items.sort(key=_key)  # exact; in order bar float ties, so about n compares
    xs, crossing = zip(*items)
    del xs_seen, items
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
    area2 = _Q(0)

    def close(key):
        nonlocal area2
        ch = open_chains.pop(key)
        x0 = xs[ch.s0]
        x1 = xs[ch.s_last + 1]
        yb_r = _exact_y(ch.bot_e, x1)
        yt_r = _exact_y(ch.top_e, x1)
        area2 = area2 + (x1 - x0) * ((ch.yt_l - ch.yb_l) + (yt_r - yb_r))
        bl = Point2(x0, ch.yb_l)
        br = Point2(x1, yb_r)
        tr = Point2(x1, yt_r)
        tl = Point2(x0, ch.yt_l)
        poly = [bl, br, tr, tl]
        if bl == tl:
            poly = [bl, br, tr]
        elif br == tr:
            poly = [bl, br, tl]
        pieces.append(poly)

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
            while si < nedges and starts[si].i0 == s:
                e = starts[si]
                si += 1
                a, b = 0, len(acts)
                while a < b:
                    mid = (a + b) // 2
                    if _below(e, acts[mid], x, xs[s + 1]):
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
                open_chains[key] = _Chain(
                    s, _exact_y(bottom, x), _exact_y(top, x), bottom, top)

    for key in list(open_chains):
        close(key)
    return pieces, area2 / 2


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


def _span_filter(i, js, fs, fb, ms, mb, span):
    """Masks (sure, unsure) over js: does edge i cross edge j inside both spans?

    fs, fb: double slopes and intercepts, ms, mb: their rounding scales;
    span: left and right bounds certainly inside, then certainly outside,
    each edge's x span.  Pairs in neither mask cannot cross inside both.
    """
    num = fb[js] - fb[i]
    den = fs[i] - fs[js]
    en = (mb[js] + mb[i]) * _MARGIN + _TINY
    ed = (ms[js] + ms[i]) * _MARGIN + _TINY
    ad = np.abs(den)
    ok = ad > ed
    with np.errstate(all="ignore"):
        fx = num / den
        err = (np.abs(num) * ed + ad * en) / (ad * (ad - ed)) + np.abs(fx) * _MARGIN
    xl = fx - err
    xh = fx + err
    in_l, in_r, out_l, out_r = span
    sure = ok & (xl > in_l[i]) & (xh < in_r[i]) & (xl > in_l[js]) & (xh < in_r[js])
    out = ok & ((xh < out_l[i]) | (xl > out_r[i]) | (xh < out_l[js]) | (xl > out_r[js]))
    return sure, ~(sure | out)


def _collect_crossings(edges, xs_seen):
    """Add both edges of every crossing inside two spans to xs_seen[x]."""
    minx, maxx, ya, yb, fs, fb, lid = np.array([
        (float(e.px), float(e.qx), float(e.py), float(e.qy), float(e.slope), float(e.icept),
         e.line_id)
        for e in edges]).T
    miny = np.minimum(ya, yb)
    maxy = np.maximum(ya, yb)
    ms, mb = np.abs(fs), np.abs(fb)  # the scales of their rounding
    el = np.abs(minx) * _MARGIN + _TINY
    er = np.abs(maxx) * _MARGIN + _TINY
    span = (minx + el, maxx - er, minx - el, maxx + er)
    for i, ei in enumerate(edges[:-1]):
        j0 = i + 1
        js = j0 + np.nonzero(
            (minx[j0:] <= maxx[i])
            & (maxx[j0:] >= minx[i])
            & (miny[j0:] <= maxy[i])
            & (maxy[j0:] >= miny[i])
            & (lid[j0:] != lid[i])
        )[0]
        if js.size == 0:
            continue
        sure, unsure = _span_filter(i, js, fs, fb, ms, mb, span)
        for j in js[sure].tolist():
            ej = edges[j]
            xs_seen.setdefault((ej.icept - ei.icept) / (ei.slope - ej.slope), []).extend((ei, ej))
        for j in js[unsure].tolist():
            ej = edges[j]
            if ei.slope == ej.slope:
                continue
            x = (ej.icept - ei.icept) / (ei.slope - ej.slope)
            if ei.px < x < ei.qx and ej.px < x < ej.qx:
                xs_seen.setdefault(x, []).extend((ei, ej))
