"""The kinetic union sweep against the slab-sweep oracle.

The oracle (tests/slab_oracle.py) re-sorts every slab from scratch and
decides membership by per-polygon parity; the package keeps one order
across breakpoints and counts winding.  Their pieces must agree exactly,
in order, on Perron trees and assemblies and on random lattice polygon
sets full of coincidences: shared and collinear edges, vertical edges,
touching vertices, T-junctions and many edges through one point.  Every
piece must also be a simple convex CCW polygon, since Region2 takes the
sweep's pieces as built.  The sweep sees frame points, pairs of plain
rationals; a lattice set is one in either frame (x = u or x = sqrt3*u).
Last, properties of Region2's union and area on the same random sets,
in both frames, against each other and against an independent raster.
"""

import contextlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from raster_oracle import raster_area
from slab_oracle import overlay as oracle_overlay

import kakeyalab.exactgeom.overlay as overlay_module
from kakeyalab.exactgeom import (
    Point2,
    Region2,
    normalize,
    orient,
    region_area,
    validate_simple_polygon,
)
from kakeyalab.exactgeom.overlay import overlay
from kakeyalab.exactgeom.scalar import SQRT3
from kakeyalab.perron import PerronSpec, apex_turn, shifted_leaves

GRID = 4
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)
PROPERTIES = settings(max_examples=40, deadline=None, database=None, derandomize=True)
FRAMES = pytest.mark.parametrize("sqrt3", [False, True], ids=["x=u", "x=sqrt3*u"])


def perron_inputs(m):
    """The tree's translated leaves, and the three rotated copies of them."""
    leaves = shifted_leaves(PerronSpec.default(m))
    copies = [[apex_turn(v, angle) for v in poly]
              for angle in (0, 120, 240) for poly in leaves]
    return leaves, copies


def region(polys, sqrt3):
    """Region2 of frame polygons, handed over in real coordinates."""
    s = SQRT3 if sqrt3 else 1
    r = Region2([[Point2(s * v.x, v.y) for v in poly] for poly in polys])
    assert r.sqrt3 == sqrt3 or not polys
    return r


def assert_same_as_oracle(groups):
    pieces, area = overlay(groups)
    want_pieces, want_area = oracle_overlay(groups, "union")
    assert pieces == want_pieces
    assert area == want_area
    # Region2 takes the pieces as built, so each must be a simple convex
    # CCW polygon: validation returns it unchanged, and every turn is left
    for p in pieces:
        assert validate_simple_polygon(p) == p
        n = len(p)
        assert all(orient(p[i], p[(i + 1) % n], p[(i + 2) % n]) > 0 for i in range(n))


@pytest.mark.parametrize("m", range(1, 7))
def test_perron_pieces_equal_oracle(m):
    for polys in perron_inputs(m):
        assert_same_as_oracle([polys])


def _box(draw):
    x0, x1 = sorted(draw(st.lists(st.integers(0, GRID), min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, GRID), min_size=2, max_size=2, unique=True)))
    bottom = [(x, y0) for x in range(x0, x1)]
    if not draw(st.booleans()):
        bottom = bottom[:1]  # sometimes keep the redundant collinear vertices
    return bottom + [(x1, y0), (x1, y1), (x0, y1)]


def _triangle(draw):
    pt = st.tuples(st.integers(0, GRID), st.integers(0, GRID))
    a, b, c = draw(pt), draw(pt), draw(pt)
    assume((b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0]))
    return [a, b, c]


@st.composite
def lattice_groups(draw):
    """1-3 groups of lattice boxes and triangles, as frame points.

    Coordinates are thirds, so doubles are inexact; as real points they
    lie in Q^2 or in sqrt3*Q x Q, after the frame region() is given.
    """
    unit = F(1, 3)
    polys = []
    for _ in range(draw(st.integers(1, 6))):
        verts = _box(draw) if draw(st.booleans()) else _triangle(draw)
        if draw(st.booleans()):
            verts.reverse()
        polys.append([Point2(unit * x, unit * y) for x, y in verts])
    cuts = sorted(draw(st.lists(st.integers(1, len(polys)), max_size=2)))
    bounds = [0] + cuts + [len(polys)]
    return [polys[i:j] for i, j in zip(bounds, bounds[1:])]


@SETTINGS
@given(lattice_groups())
def test_lattice_sets_equal_oracle(groups):
    assert_same_as_oracle(groups)


def test_collinear_ties_follow_insertion_order():
    # two boxes sharing the side y=1, the upper one starting further left:
    # its bottom edge enters the sweep first, so on 1 < x < 2 it stays
    # below the lower box's top edge, the coverage never drops to zero on
    # the shared line, and that slab is one piece; ordering the tie by
    # polygon instead would cut it there and give two pieces in all
    def box(x0, y0, x1, y1):
        return [Point2(x, y) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]

    groups = [[box(1, 0, 3, 1), box(0, 1, 2, 2)]]
    pieces, _ = overlay(groups)
    assert len(pieces) == 3
    assert_same_as_oracle(groups)


def sliver_fans():
    """Thin wedges from an apex far from the origin, 3e-13 apart in slope.

    At a slab midpoint their heights differ by less than the rounding of
    doubles at that magnitude (a third of the double comparisons there
    get the sign wrong), so only the certified margins keep the order.
    """
    apex_x, apex_y = 10 ** 6 + F(1, 3), F(1, 7)
    slopes = [1 + F(k, 3 * 10 ** 12) for k in range(8)]
    fans = []
    for far_dx in (1, -1):
        far = [Point2(apex_x + far_dx, apex_y + far_dx * s) for s in slopes]
        apex = Point2(apex_x, apex_y)
        for pairs in (((0, 1), (2, 3), (4, 5), (6, 7)), ((0, 3), (1, 4), (2, 6), (5, 7))):
            fans.append([[[apex, far[a], far[b]] for a, b in pairs]])
    return fans


@contextlib.contextmanager
def exact_paths():
    """Route the crossing triage to exact code."""
    calls = {"span": 0}

    def exact_span(i, js, *arrays):
        calls["span"] += 1
        return np.zeros(len(js), dtype=bool), np.ones(len(js), dtype=bool)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(overlay_module, "_span_filter", exact_span)
        yield calls


def assert_filters_exact(groups):
    """The filtered and the exact crossing search agree; returns how many
    times the exact one ran."""
    filtered = overlay(groups)
    with exact_paths() as calls:
        exact = overlay(groups)
    assert filtered[0] == exact[0]
    assert filtered[1] == exact[1]
    return calls["span"]


@pytest.mark.parametrize("groups", sliver_fans())
def test_float_filters_on_sliver_fans(groups):
    assert assert_filters_exact(groups) > 0
    assert_same_as_oracle(groups)


def test_float_filters_on_perron_assemblies():
    for m in range(1, 5):
        for polys in perron_inputs(m):
            assert assert_filters_exact([polys]) > 0


@SETTINGS
@given(lattice_groups())
def test_float_filters_on_lattice_sets(groups):
    assert_filters_exact(groups)


def test_empty_input_and_either_orientation():
    assert overlay([]) == ([], 0)
    assert overlay([[]]) == ([], 0)
    # winding weights follow each polygon's own orientation
    tri = [Point2(0, 0), Point2(1, 0), Point2(0, 1)]
    pieces, area = overlay([[tri], [list(reversed(tri))]])
    assert area == F(1, 2)
    assert len(pieces) == 1


@SETTINGS
@given(lattice_groups(), st.booleans())
def test_region_area_properties(groups, sqrt3):
    # normalized regions are fixed points; re-validating their pieces or
    # reversing the input keeps the area; a union is at most its parts
    polys = [p for g in groups for p in g]
    n = normalize(region(polys, sqrt3))
    assert normalize(n) is n
    assert region_area(region(n.polygons, sqrt3)) == region_area(n)
    assert region_area(region(polys[::-1], sqrt3)) == region_area(n)
    a, b = region(groups[0], sqrt3), region([p for g in groups[1:] for p in g], sqrt3)
    assert region_area(n) <= region_area(a) + region_area(b)


def _split(groups):
    return groups[0], [p for g in groups[1:] for p in g]


@FRAMES
@PROPERTIES
@given(groups=lattice_groups())
def test_union_commutes_and_is_idempotent(sqrt3, groups):
    a, b = _split(groups)
    ab = normalize(region(a + b, sqrt3))
    ba = normalize(region(b + a, sqrt3))
    # equal areas, and their union no larger: the same set up to measure 0
    assert region_area(ba) == region_area(ab)
    assert region_area(region(list(ab.polygons) + list(ba.polygons), sqrt3)) == region_area(ab)
    assert region_area(region(a + b + a + b, sqrt3)) == region_area(ab)
    assert region_area(region(list(ab.polygons) + a, sqrt3)) == region_area(ab)


@FRAMES
@PROPERTIES
@given(groups=lattice_groups(), shift=st.sampled_from([(GRID, 0), (0, GRID), (GRID, GRID), (-GRID, 0)]))
def test_area_adds_over_interior_disjoint_sets(sqrt3, groups, shift):
    # b moved one lattice width away meets a at most along its boundary,
    # often along whole shared edges
    a, b = _split(groups)
    if not b:
        b = a
    d = Point2(F(shift[0], 3), F(shift[1], 3))
    b = [[v + d for v in poly] for poly in b]
    whole = region_area(region(a + b, sqrt3))
    assert whole == region_area(region(a, sqrt3)) + region_area(region(b, sqrt3))


@PROPERTIES
@given(groups=lattice_groups(), angle=st.sampled_from([120, 240]))
def test_apex_turns_keep_areas(groups, angle):
    # sqrt3*Q x Q only: a turn sends Q^2 points to mixed ones
    polys = [p for g in groups for p in g]
    turned = [[apex_turn(v, angle) for v in poly] for poly in polys]
    assert region_area(region(turned, True)) == region_area(region(polys, True))


@FRAMES
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(groups=lattice_groups())
def test_areas_agree_with_the_rasterizer(sqrt3, groups):
    r = region([p for g in groups for p in g], sqrt3)
    polys = r.floats()
    n = 200
    approx = raster_area(polys, n)
    # a raster cell is miscounted only where the boundary passes: at most
    # sqrt2 * length / c + 2 cells of side c per edge
    xs = [x for poly in polys for x, _ in poly]
    ys = [y for poly in polys for _, y in poly]
    c = 1.002 * max(max(xs) - min(xs), max(ys) - min(ys)) / n + 1e-6 / n
    edges = [(poly[i - 1], poly[i]) for poly in polys for i in range(len(poly))]
    perimeter = sum(math.dist(p, q) for p, q in edges)
    tol = math.sqrt(2) * perimeter * c + 2 * len(edges) * c * c
    assert abs(approx - float(region_area(r))) <= tol


def margin_sets():
    """Two triangles far from the origin whose edges cross at x* + e,
    where x* is an end of one edge's span and |e| is 1e-14 to 1e-16 of
    |x*|: e > 0 puts the crossing inside both spans, e < 0 outside.  Far
    out, the double crossing errs by more than that, so only _MARGIN
    keeps the triage from deciding the side on rounding noise."""
    sets = []
    for x0, y0 in ((10 ** 6 + F(1, 3), F(2, 7)), (-3 * 10 ** 7 - F(2, 9), 10 ** 5 + F(1, 11))):
        for e in (F(k, 10 ** d) * abs(x0) for d in (14, 16) for k in (-4, -3, -2, -1, 1, 2, 3, 4)):
            for end in (x0, x0 + 1):
                # edge p-q, slope 1, spans [x0, x0 + 1]; edge a-b crosses
                # its line at x = end + e, a little off p or q
                p, q = Point2(x0, y0), Point2(x0 + 1, y0 + 1)
                xc = end + e if end == x0 else end - e
                yc = y0 + (xc - x0)
                s2 = 1 + F(1, 997)
                a = Point2(xc - 2, yc - 2 * s2)
                b = Point2(xc + 2, yc + 2 * s2)
                sets.append([[[p, q, Point2(x0 + 1, y0)]], [[a, b, Point2(xc - 2, yc + 5)]]])
    return sets


@pytest.mark.parametrize("groups", margin_sets())
def test_float_filters_near_the_span_margin(groups):
    assert_filters_exact(groups)
    assert_same_as_oracle(groups)


def near_end_sets():
    """Two triangles whose slanted edges cross h before (h > 0) or after
    (h < 0) the end of one edge and 2h after the start of the other, so
    both x spans meet at 4/3 to within 2h.  At |h| = 1e-18 the doubles
    of every end near the crossing coincide, so the box test ties; the
    pair is mirrored, turned a quarter and given in both orders, so each
    of its comparisons meets the tie."""
    sets = []
    end = F(4, 3)
    for h in (0, F(1, 10**18), -F(1, 10**18), F(1, 10**12), -F(1, 10**12)):
        # edge A: slope 1 up to (4/3, 4/3); edge B: slope -1 from x = 4/3 - 2h
        a = [(F(1, 3), F(1, 3)), (end, F(1, 3)), (end, end)]
        b = [(end - 2 * h, end), (F(7, 3), F(1, 3) - 2 * h), (F(7, 3), end)]
        for mirror in (1, -1):
            for turns in (0, 1):
                tris = []
                for tri in (a, b):
                    pts = [(mirror * x, y) for x, y in tri]
                    if turns:
                        pts = [(-y, x) for x, y in pts]
                    tris.append([Point2(x, y) for x, y in pts])
                sets.append([[tris[0]], [tris[1]]])
                sets.append([[tris[1]], [tris[0]]])
    return sets


def test_near_end_crossings_below_double_resolution():
    assert float(F(4, 3) - F(2, 10**18)) == float(F(4, 3))
    for groups in near_end_sets():
        assert_filters_exact(groups)
        assert_same_as_oracle(groups)
