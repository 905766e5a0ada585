"""Cut-and-shift trees: partition exactness, area decay, direction coverage."""

import dataclasses
import json
import random
from fractions import Fraction as F

import pytest

from containment_oracle import polygon_area
from rotation_oracle import RigidMotion
from kakeyalab.exactgeom import (
    ExactScalar,
    GeomError,
    INV_SQRT3,
    Point2,
    Region2,
    Segment2,
    ZERO,
    point_in_polygon_closed,
    region_area,
)
from kakeyalab.exactgeom import region as region_module
from kakeyalab.exactgeom.overlay import overlay
from kakeyalab.exactgeom.scalar import SQRT3, _Q, scalar
from kakeyalab.perron import (
    APEX,
    BASE_TRIANGLE,
    MAX_DEPTH,
    PerronSpec,
    apex_turn,
    assemble_kakeya,
    bisect,
    build_perron_tree,
    covering_segment,
    default_schedule,
    direction_coverage,
    full_circle_coverage,
    sector_abscissas,
    shifted_leaves,
    tree_from_json,
    tree_to_json,
)

# frozen overlap area for the one-level half-shift tree (11/16 of the triangle)
ONE_LEVEL_HALF_SHIFT_AREA = ExactScalar(0, F(11, 48))


def test_bisect_partitions_exactly():
    # leaves are in the sqrt3 frame: the triangle's area 1/sqrt3 is 1/3 there
    for m in (1, 3, 4):
        spec = PerronSpec(m, (F(1, 2),) * m)
        leaves = bisect(spec)
        assert len(leaves) == 2 ** m
        per = F(1, 3 * 2 ** m)
        total = 0
        for leaf in leaves:
            a = polygon_area(leaf)
            assert a == per
            total = total + a
        assert total == F(1, 3)
        _, union_area = overlay([leaves])
        assert union_area == F(1, 3)
        assert SQRT3 * union_area == INV_SQRT3


def test_one_level_half_shift_golden():
    tree = build_perron_tree(PerronSpec(1, (F(1, 2),)))
    assert tree.area() == ONE_LEVEL_HALF_SHIFT_AREA
    assert tree.area() < INV_SQRT3


def test_zero_schedule_is_identity():
    for m in (1, 2, 3):
        tree = build_perron_tree(PerronSpec(m, (F(0),) * m))
        assert tree.area() == INV_SQRT3
        assert all(p.x == ZERO and p.y == ZERO for p in tree.piece_shifts)


def test_default_schedule_area_non_increasing():
    prev = None
    triangle = region_area(Region2.from_polygon(list(BASE_TRIANGLE)))
    for m in range(1, 7):
        tree = build_perron_tree(PerronSpec.default(m))
        assert tree.area() <= triangle
        if prev is not None:
            assert tree.area() <= prev
        prev = tree.area()


def test_random_schedules_never_exceed_triangle():
    rng = random.Random(808)
    for _ in range(10):
        m = rng.randint(2, 4)
        sched = tuple(F(rng.randint(0, 15), 16) for _ in range(m))
        tree = build_perron_tree(PerronSpec(m, sched))
        assert tree.area() <= INV_SQRT3


def test_schedule_validation():
    with pytest.raises(GeomError):
        PerronSpec(0, ())
    with pytest.raises(GeomError):
        PerronSpec(2, (F(1, 2),))
    with pytest.raises(GeomError):
        PerronSpec(1, (F(1),))
    with pytest.raises(GeomError):
        PerronSpec(1, (F(-1, 4),))


def test_default_schedule_values():
    assert default_schedule(3) == (F(1, 3), F(1, 2), F(3, 5))


def test_coverage_full_at_small_depths():
    for m in (2, 3, 4):
        tree = build_perron_tree(PerronSpec.default(m))
        rep = direction_coverage(tree, 145)
        assert rep.fraction == 1.0
        assert rep.failed == ()


def test_covering_segment_certificate():
    from kakeyalab.perron import shifted_leaves

    tree = build_perron_tree(PerronSpec.default(3))
    leaves = shifted_leaves(tree.spec)
    for t in sector_abscissas(33):
        seg, k = covering_segment(tree, t)
        assert point_in_polygon_closed(seg.p, leaves[k])
        assert point_in_polygon_closed(seg.q, leaves[k])


def test_covering_segment_on_leaf_boundary():
    tree = build_perron_tree(PerronSpec.default(2))
    # abscissa exactly on the cut between leaves 1 and 2
    t = ZERO
    seg, k = covering_segment(tree, t)
    sh = tree.piece_shifts[k]
    assert seg.p == Point2(sh.x, scalar(1) + sh.y)
    assert seg.q == Point2(t + sh.x, ZERO)


def test_vertical_direction_trivially_covered():
    tree = build_perron_tree(PerronSpec.default(4))
    seg, k = covering_segment(tree, ZERO)
    from kakeyalab.perron import shifted_leaves

    leaves = shifted_leaves(tree.spec)
    assert point_in_polygon_closed(seg.p, leaves[k])
    assert point_in_polygon_closed(seg.q, leaves[k])


def test_direction_outside_sector_rejected():
    tree = build_perron_tree(PerronSpec.default(2))
    with pytest.raises(GeomError):
        covering_segment(tree, INV_SQRT3 * scalar(2))
    with pytest.raises(GeomError):
        covering_segment(tree, -INV_SQRT3 - scalar(F(1, 1000)))


def test_assemble_area_subadditive():
    tree = build_perron_tree(PerronSpec.default(2))
    kak = assemble_kakeya(tree)
    assert region_area(kak) <= tree.area() * scalar(3)


def test_assemble_zero_schedule_bound():
    tree = build_perron_tree(PerronSpec(2, (F(0), F(0))))
    kak = assemble_kakeya(tree)
    assert region_area(kak) <= INV_SQRT3 * scalar(3)


def test_full_circle_coverage_small():
    tree = build_perron_tree(PerronSpec.default(3))
    rep = full_circle_coverage(tree, 144)
    assert rep.fraction == 1.0


def _rotated_copy_failures(tree, n_dirs):
    # every copy certified on its own: segment and leaf rotated together
    per = n_dirs // 3
    leaves = shifted_leaves(tree.spec)
    failed = []
    for c, angle in enumerate((0, 120, 240)):
        for j, t in enumerate(sector_abscissas(per), c * per):
            seg, k = covering_segment(tree, t)
            rseg = Segment2(apex_turn(seg.p, angle), apex_turn(seg.q, angle))
            rleaf = [apex_turn(v, angle) for v in leaves[k]]
            if not (point_in_polygon_closed(rseg.p, rleaf)
                    and point_in_polygon_closed(rseg.q, rleaf)):
                failed.append(j)
    return tuple(failed)


def test_full_circle_failures_match_rotated_copies():
    tree = build_perron_tree(PerronSpec.default(3))
    shifts = list(tree.piece_shifts)
    shifts[5] = Point2(shifts[5].x + F(1, 24), shifts[5].y)  # x by sqrt3/24
    bad = dataclasses.replace(tree, piece_shifts=tuple(shifts))
    rep = full_circle_coverage(bad, 144)
    assert rep.failed
    assert rep.failed == _rotated_copy_failures(bad, 144)
    assert rep.covered == 144 - len(rep.failed)


def test_perron_coordinates_are_graded():
    # x in sqrt3*Q and y in Q: the whole construction runs on plain
    # rationals (u, y) = (x/sqrt3, y) in the sqrt3 frame
    tree = build_perron_tree(PerronSpec.default(4))
    kak = assemble_kakeya(tree)
    assert tree.region.sqrt3 and kak.sqrt3
    points = [v for region in (tree.region, kak)
              for poly in region.polygons for v in poly]
    points += tree.piece_shifts
    assert len(tree.region.polygons) == 40
    assert len(kak.polygons) == 356
    assert [p for p in points if type(p.x) is not _Q or type(p.y) is not _Q] == []


def test_apex_turn_is_the_rigid_rotation():
    # the rational map of (u, y) against RigidMotion on x = sqrt3*u
    rng = random.Random(400)
    for _ in range(400):
        p = Point2(F(rng.randint(-99, 99), rng.randint(1, 30)),
                   F(rng.randint(-99, 99), rng.randint(1, 30)))
        for angle in (0, 120, 240):
            q = apex_turn(p, angle)
            assert RigidMotion.rotation(angle, APEX).apply(Point2(SQRT3 * p.x, p.y)) \
                == Point2(SQRT3 * q.x, q.y)


def test_covering_segment_for_a_rational_abscissa():
    # no frame holds t + sqrt3*u: the segment keeps Q(sqrt3) values, and
    # its leaf is the one an exact comparison with the cuts picks
    tree = build_perron_tree(PerronSpec.default(3))
    for t in (F(-57, 100), F(0), F(1, 7), F(57, 100)):
        seg, k = covering_segment(tree, t)
        u = tree.piece_shifts[k].x
        assert seg.q.x == ExactScalar(t, u) and seg.q.y == ZERO
        assert seg.p.x == ExactScalar(0, u) and seg.p.y == 1
        lo, hi = (ExactScalar(0, F(2 * j - 8, 24)) for j in (k, k + 1))
        assert lo <= scalar(t) <= hi
    with pytest.raises(GeomError):
        covering_segment(tree, F(58, 100))  # past 1/sqrt3 = 0.577...


def test_depth_is_capped():
    PerronSpec.default(MAX_DEPTH)
    with pytest.raises(GeomError, match="deepest"):
        PerronSpec.default(MAX_DEPTH + 1)


def test_full_circle_needs_multiple_of_three():
    tree = build_perron_tree(PerronSpec.default(2))
    with pytest.raises(GeomError):
        full_circle_coverage(tree, 100)


def test_tree_json_roundtrip_byte_identical():
    tree = build_perron_tree(PerronSpec.default(3))
    blob = tree_to_json(tree)
    again = tree_to_json(tree_from_json(blob))
    assert again == blob
    rebuilt = tree_to_json(build_perron_tree(PerronSpec.default(3)))
    assert rebuilt == blob


def test_tree_json_validates_each_piece_once(monkeypatch):
    tree = build_perron_tree(PerronSpec.default(3))
    blob = tree_to_json(tree)
    calls = []
    real = region_module.validate_simple_polygon

    def counted(poly):
        calls.append(len(poly))
        return real(poly)

    monkeypatch.setattr(region_module, "validate_simple_polygon", counted)
    tree_from_json(blob)
    # every piece of the region, once
    assert len(calls) == len(tree.region.polygons)


def test_tree_json_area_comes_from_the_pieces():
    # the file's area is not trusted: an edited one reads back as the true
    # area, and re-encoding restores the original bytes
    tree = build_perron_tree(PerronSpec.default(3))
    blob = tree_to_json(tree)
    obj = json.loads(blob)
    obj["area"] = [5, 1, 0, 1]
    back = tree_from_json(json.dumps(obj))
    assert back.area() == tree.area()
    assert tree_to_json(back) == blob


def test_tree_json_preserves_exact_area():
    tree = build_perron_tree(PerronSpec(2, (F(1, 3), F(2, 5))))
    back = tree_from_json(tree_to_json(tree))
    assert back.area() == tree.area()
    assert back.piece_shifts == tree.piece_shifts
