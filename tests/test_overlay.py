"""The kinetic union sweep against the slab-sweep oracle.

The oracle (tests/slab_oracle.py) re-sorts every slab from scratch and
decides membership by per-polygon parity; the package keeps one order
across breakpoints and counts winding.  Their pieces must agree exactly,
in order, on Perron trees and assemblies and on random lattice polygon
sets full of coincidences: shared and collinear edges, vertical edges,
touching vertices, T-junctions and many edges through one point.  Every
piece must also be a simple convex CCW polygon, since Region2 takes the
sweep's pieces as built.  Last, area properties of Region2 on the same
random sets.
"""

import contextlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slab_oracle import overlay as oracle_overlay

import kakeyalab.exactgeom.overlay as overlay_module
from kakeyalab.exactgeom import (
    Point2,
    Region2,
    RigidMotion,
    normalize,
    orient,
    region_area,
    validate_simple_polygon,
)
from kakeyalab.exactgeom.overlay import overlay
from kakeyalab.exactgeom.scalar import SQRT3, scalar
from kakeyalab.perron import APEX, PerronSpec, shifted_leaves

GRID = 4
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def perron_inputs(m):
    """The tree's translated leaves, and the three rotated copies of them."""
    leaves = shifted_leaves(PerronSpec.default(m))
    copies = [[RigidMotion.rotation(angle, APEX).apply(v) for v in poly]
              for angle in (0, 120, 240) for poly in leaves]
    return leaves, copies


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
    """1-3 groups of lattice boxes and triangles, in Q^2 or sqrt3*Q x Q.

    Coordinates are thirds (x also times sqrt3), so doubles are inexact.
    """
    xunit = SQRT3 * scalar(F(1, 3)) if draw(st.booleans()) else scalar(F(1, 3))
    yunit = scalar(F(1, 3))
    polys = []
    for _ in range(draw(st.integers(1, 6))):
        verts = _box(draw) if draw(st.booleans()) else _triangle(draw)
        if draw(st.booleans()):
            verts.reverse()
        polys.append([Point2(xunit * scalar(x), yunit * scalar(y)) for x, y in verts])
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
        return [Point2(scalar(x), scalar(y))
                for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]

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
        far = [Point2(scalar(apex_x + far_dx), scalar(apex_y + far_dx * s)) for s in slopes]
        apex = Point2(scalar(apex_x), scalar(apex_y))
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
    tri = [Point2(scalar(0), scalar(0)), Point2(scalar(1), scalar(0)), Point2(scalar(0), scalar(1))]
    pieces, area = overlay([[tri], [list(reversed(tri))]])
    assert area == scalar(F(1, 2))
    assert len(pieces) == 1


@SETTINGS
@given(lattice_groups())
def test_region_area_properties(groups):
    # normalized regions are fixed points; re-validating their pieces or
    # reversing the input keeps the area; a union is at most its parts
    polys = [p for g in groups for p in g]
    n = normalize(Region2(polys))
    assert normalize(n) is n
    assert region_area(Region2(n.polygons)) == region_area(n)
    assert region_area(Region2(polys[::-1])) == region_area(n)
    a, b = Region2(groups[0]), Region2([p for g in groups[1:] for p in g])
    assert region_area(n) <= region_area(a) + region_area(b)
