"""Slab-by-slab overlay sweep, kept as an independent oracle for tests.

This is the sweep the package used before its kinetic union sweep: it
re-sorts and re-walks every active edge in every slab, so it is slow but
simple.  It also keeps what the package no longer needs: an 'intersect'
mode and even-odd membership per input group.

The engine is a vertical slab decomposition: collect every edge endpoint
x and every pairwise line-crossing x as breakpoints, then inside each open
slab the active edges are crossing-free and totally ordered by height.
Walking that order with even-odd parity per input polygon classifies each
gap; kept gaps become trapezoids, which are merged across slab boundaries
whenever both bounding lines continue.  Output region and area are exact.

Decisions are exact comparisons of the rational frame coordinates that
the package's regions hold, reached through a certified float filter: each height comparison first tries cached double arithmetic
with a forward error bound; only ambiguous pairs fall back to exact
evaluation.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

from kakeyalab.exactgeom.primitives import GeomError, Point2


def _sign(v) -> int:
    return (v > 0) - (v < 0)


class _Edge:
    __slots__ = ("px", "py", "qx", "qy", "slope", "icept", "fslope", "ficept",
                 "emax", "line_id", "uid", "gid", "fyl", "fyr", "fk",
                 "cx0", "cy0", "cx1", "cy1")

    def __init__(self, a: Point2, b: Point2, uid: int, gid: int):
        if a.x < b.x:
            p, q = a, b
        else:
            p, q = b, a
        self.px, self.py = p.x, p.y
        self.qx, self.qy = q.x, q.y
        self.slope = (q.y - p.y) / (q.x - p.x)
        self.icept = p.y - self.slope * p.x
        self.fslope = float(self.slope)
        self.ficept = float(self.icept)
        # static forward error bound for height evaluation anywhere on the
        # edge span (true rounding error is below 1e-15 of magnitude)
        xm = max(abs(float(self.px)), abs(float(self.qx)))
        self.emax = (abs(self.ficept) + abs(self.fslope) * xm) * 1e-13 + 1e-280
        self.uid = uid
        self.gid = gid
        self.line_id = -1
        # two-slot cache of exact heights keyed by boundary object identity
        self.cx0 = None
        self.cy0 = None
        self.cx1 = None
        self.cy1 = None


def _exact_y(e: _Edge, x):
    if e.cx0 is x:
        return e.cy0
    if e.cx1 is x:
        return e.cy1
    y = e.icept + e.slope * x
    e.cx1 = e.cx0
    e.cy1 = e.cy0
    e.cx0 = x
    e.cy0 = y
    return y


def _cmp_true(a: _Edge, b: _Edge, x0, x1) -> int:
    """Exact lexicographic order by (height at x0, height at x1)."""
    d = a.fyl - b.fyl
    tol = a.emax + b.emax
    if d < -tol:
        return -1
    if d > tol:
        return 1
    c = _sign(_exact_y(a, x0) - _exact_y(b, x0))
    if c:
        return c
    d = a.fyr - b.fyr
    if d < -tol:
        return -1
    if d > tol:
        return 1
    return _sign(_exact_y(a, x1) - _exact_y(b, x1))


def _sort_exact(vals):
    """Sort exact values: float pre-sort, then certified adjacent fixup."""
    vals.sort(key=float)
    for i in range(1, len(vals)):
        v = vals[i]
        j = i - 1
        while j >= 0 and _scalar_gt(vals[j], v):
            vals[j + 1] = vals[j]
            j -= 1
        vals[j + 1] = v
    return vals


def _scalar_gt(a, b) -> bool:
    fa = float(a)
    fb = float(b)
    tol = (abs(fa) + abs(fb)) * 1e-13 + 1e-280
    if fa - fb > tol:
        return True
    if fb - fa > tol:
        return False
    return a > b


class _Chain:
    __slots__ = ("s0", "s_last", "yb_l", "yt_l", "bot_e", "top_e")

    def __init__(self, s, yb_l, yt_l, bot_e, top_e):
        self.s0 = s
        self.s_last = s
        self.yb_l = yb_l
        self.yt_l = yt_l
        self.bot_e = bot_e
        self.top_e = top_e


def overlay(groups, mode: str):
    """Overlay polygon groups; mode 'union' or 'intersect'.

    groups: list of polygon lists (each polygon a list of Point2; simple).
    Membership per group is even-odd over its polygons; 'union' keeps
    points covered by any group, 'intersect' points covered by all groups.

    Returns (pieces, area): pieces a list of convex vertex lists (CCW,
    pairwise interior-disjoint trapezoids/triangles), area their exact sum.
    """
    if mode not in ("union", "intersect"):
        raise ValueError("unknown overlay mode %r" % (mode,))
    ngroups = len(groups)

    edges = []
    xs_seen = {}
    uid = 0
    for gid, polys in enumerate(groups):
        for poly in polys:
            n = len(poly)
            for i in range(n):
                a = poly[i]
                b = poly[(i + 1) % n]
                xs_seen[a.x] = None
                if a == b:
                    continue
                if a.x == b.x:
                    continue  # vertical edges only contribute breakpoints
                edges.append(_Edge(a, b, uid, gid))
            uid += 1

    # canonical line ids (shared by collinear edges)
    line_ids = {}
    for e in edges:
        key = (e.slope, e.icept)
        e.line_id = line_ids.setdefault(key, len(line_ids))

    _collect_crossings(edges, xs_seen)

    xs = _sort_exact(list(xs_seen.keys()))
    if len(xs) < 2 or not edges:
        return [], Fraction(0)
    xidx = {x: i for i, x in enumerate(xs)}
    nslab = len(xs) - 1
    add_ev = [[] for _ in range(nslab + 1)]
    rem_ev = [[] for _ in range(nslab + 1)]
    for e in edges:
        add_ev[xidx[e.px]].append(e)
        rem_ev[xidx[e.qx]].append(e)

    pieces = []
    open_chains = {}
    area2 = Fraction(0)
    active = {}
    parity = {}
    odd = [0] * ngroups
    union_mode = mode == "union"

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

    for s in range(nslab):
        for e in rem_ev[s]:
            active.pop(e, None)
        for e in add_ev[s]:
            active[e] = None
        if not active:
            continue
        x0 = xs[s]
        x1 = xs[s + 1]
        fx0 = float(x0)
        fx1 = float(x1)
        acts = list(active)
        for e in acts:
            yl = e.ficept + e.fslope * fx0
            yr = e.ficept + e.fslope * fx1
            e.fyl = yl
            e.fyr = yr
            e.fk = yl + yr
        acts.sort(key=_fkey)
        for i in range(1, len(acts)):
            e = acts[i]
            j = i - 1
            if _cmp_true(acts[j], e, x0, x1) <= 0:
                continue
            while j >= 0 and _cmp_true(acts[j], e, x0, x1) > 0:
                acts[j + 1] = acts[j]
                j -= 1
            acts[j + 1] = e

        for g in range(ngroups):
            odd[g] = 0
        parity.clear()
        covered = 0
        prev = False
        bottom = None
        for e in acts:
            was = parity.get(e.uid, False)
            parity[e.uid] = not was
            if was:
                odd[e.gid] -= 1
                if odd[e.gid] == 0:
                    covered -= 1
            else:
                odd[e.gid] += 1
                if odd[e.gid] == 1:
                    covered += 1
            now = covered > 0 if union_mode else covered == ngroups
            if now and not prev:
                bottom = e
            elif prev and not now:
                top = e
                if _gap_real(bottom, top, x0, x1):
                    key = (bottom.line_id, top.line_id)
                    ch = open_chains.get(key)
                    if ch is not None and ch.s_last == s - 1:
                        ch.s_last = s
                        ch.bot_e = bottom
                        ch.top_e = top
                    else:
                        if ch is not None:
                            close(key)
                        open_chains[key] = _Chain(
                            s, _exact_y(bottom, x0), _exact_y(top, x0),
                            bottom, top)
            prev = now
        if prev:
            raise GeomError("sweep parity failed to close at slab %d" % s)

    for key in list(open_chains):
        close(key)
    return pieces, area2 / 2


_fkey = operator.attrgetter("fk")


def _gap_real(bottom: _Edge, top: _Edge, x0, x1) -> bool:
    # certified-positive height on either boundary, exact check if unclear
    tol = top.emax + bottom.emax
    if top.fyl - bottom.fyl > tol:
        return True
    if top.fyr - bottom.fyr > tol:
        return True
    if _sign(_exact_y(top, x0) - _exact_y(bottom, x0)) != 0:
        return True
    return _sign(_exact_y(top, x1) - _exact_y(bottom, x1)) != 0


def _collect_crossings(edges, xs_seen):
    """Add every pairwise segment-crossing x to xs_seen (exact)."""
    ne = len(edges)
    if ne < 2:
        return
    minx = np.empty(ne)
    maxx = np.empty(ne)
    miny = np.empty(ne)
    maxy = np.empty(ne)
    for i, e in enumerate(edges):
        minx[i] = float(e.px)
        maxx[i] = float(e.qx)
        fy1 = float(e.py)
        fy2 = float(e.qy)
        miny[i] = fy1 if fy1 < fy2 else fy2
        maxy[i] = fy1 if fy1 > fy2 else fy2
    span = max(maxx.max() - minx.min(), maxy.max() - miny.min(), 1.0)
    m = 1e-9 * span
    for i in range(ne - 1):
        j0 = i + 1
        cand = np.nonzero(
            (minx[j0:] <= maxx[i] + m)
            & (maxx[j0:] >= minx[i] - m)
            & (miny[j0:] <= maxy[i] + m)
            & (maxy[j0:] >= miny[i] - m)
        )[0]
        if cand.size == 0:
            continue
        ei = edges[i]
        for j in cand:
            ej = edges[j0 + int(j)]
            if ei.line_id == ej.line_id or ei.slope == ej.slope:
                continue
            x = (ej.icept - ei.icept) / (ei.slope - ej.slope)
            if ei.px <= x <= ei.qx and ej.px <= x <= ej.qx:
                xs_seen[x] = None
