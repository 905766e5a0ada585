"""Cut-and-shift trees with exact area bookkeeping.

Start from the height-1 equilateral triangle with apex (0, 1) and base
[-1/sqrt3, 1/sqrt3] x {0}.  Cut it into 2^m fan triangles sharing the
apex, then run m pairing levels: at level i adjacent blocks of 2^(i-1)
leaves slide horizontally toward each other by sigma_i times the block's
slot width (each partner moves half of that).  The overlapped union can
be made far smaller than the triangle while every apex-to-base segment
survives inside some translated leaf, whose translation we record.

Three copies of the result rotated by 120 degrees about the apex contain
a unit segment in every direction of the plane.

Every vertex, shift and rotated copy has x in sqrt3*Q and y in Q, so the
whole construction runs in the frame (u, y) = (x/sqrt3, y) on plain
rationals (see exactgeom.region), and areas come out as exact equalities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactgeom import (
    ExactScalar,
    GeomError,
    INV_SQRT3,
    ONE,
    Point2,
    Region2,
    SQRT3,
    Segment2,
    ZERO,
    contains_segment,
    point_in_polygon_closed,
    rational,
    region_area,
)
from .exactgeom.overlay import overlay
from .exactgeom.region import _decode_polygons, _pieces, _to_frame
from .exactgeom.scalar import _Q, scalar

APEX = Point2(0, 1)  # x = 0 in every frame
BASE_HALF = INV_SQRT3

BASE_TRIANGLE = (
    Point2(-BASE_HALF, ZERO),
    Point2(BASE_HALF, ZERO),
    APEX,
)

# Deepest tree admitted: the union sweep grows about 4x per level, and
# the three-copy assembly about 5x (see README).
MAX_DEPTH = 9


def default_schedule(m: int) -> tuple[Fraction, ...]:
    """The demo schedule sigma_i = i/(i+2); decays visibly and stays exact."""
    return tuple(Fraction(i, i + 2) for i in range(1, m + 1))


@dataclass(frozen=True)
class PerronSpec:
    """Tree shape parameters: depth m and the m shift fractions."""

    m: int
    schedule: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise GeomError("m must be a positive integer")
        if self.m > MAX_DEPTH:
            raise GeomError(
                "m = %d would build 2^%d leaves; the union grows about 4x per "
                "level and m = %d is the deepest admitted" % (self.m, self.m, MAX_DEPTH))
        sched = tuple(Fraction(rational(s)) for s in self.schedule)
        if len(sched) != self.m:
            raise GeomError("schedule length %d != m = %d" % (len(sched), self.m))
        for s in sched:
            # zero is allowed so the identity tree exists; 1 would collapse
            # a pair onto a single slot and is rejected
            if not (0 <= s < 1):
                raise GeomError("shift fraction %s outside [0, 1)" % (s,))
        object.__setattr__(self, "schedule", sched)

    @classmethod
    def default(cls, m: int) -> "PerronSpec":
        return cls(m, default_schedule(m))


@dataclass(frozen=True)
class PerronTree:
    """A built tree: exact region plus the per-leaf translation record."""

    spec: PerronSpec
    region: Region2
    piece_shifts: tuple[Point2, ...]

    @property
    def m(self) -> int:
        return self.spec.m

    def area(self) -> ExactScalar:
        return region_area(self.region)


def _cut(k: int, n: int):
    """Frame abscissa u of the k-th of the n + 1 base cuts."""
    return _Q(2 * k - n, 3 * n)


def bisect(spec: PerronSpec) -> list[list[Point2]]:
    """The 2^m fan triangles in the sqrt3 frame: common apex, equal base
    slots, CCW."""
    n = 2 ** spec.m
    us = [_cut(k, n) for k in range(n + 1)]
    return [[Point2(us[k], 0), Point2(us[k + 1], 0), APEX] for k in range(n)]


def leaf_shifts(spec: PerronSpec) -> list:
    """Horizontal translation u of each leaf after all m pairing levels.

    At level i the paired blocks each span 2^(i-1) leaves; the left block
    of a pair moves +x and the right one -x, each by half of sigma_i
    times the block slot width 2^(i-1) * W / 2^m.
    """
    n = 2 ** spec.m
    deltas = [_Q(2 ** i, 3 * n) * rational(sigma) / 2
              for i, sigma in enumerate(spec.schedule, 1)]
    # at level i + 1 the leaf's block, leaf >> i, moves right when even
    return [sum((-d if leaf >> i & 1 else d for i, d in enumerate(deltas)), _Q(0))
            for leaf in range(n)]


def shifted_leaves(spec: PerronSpec) -> list[list[Point2]]:
    return [[Point2(v.x + sh, v.y) for v in poly]
            for poly, sh in zip(bisect(spec), leaf_shifts(spec))]


def build_perron_tree(spec: PerronSpec) -> PerronTree:
    """Run the cut-and-shift and return the exact normalized union."""
    region = _pieces(*overlay([shifted_leaves(spec)]), True)
    shifts = tuple(Point2(s, 0) for s in leaf_shifts(spec))
    return PerronTree(spec=spec, region=region, piece_shifts=shifts)


def covering_segment(tree: PerronTree, t) -> tuple[Segment2, int]:
    """Shifted apex-to-base segment for base abscissa t in [-1/sqrt3, 1/sqrt3].

    A direction through the apex is parametrized by where it meets the
    base line.  Returns the segment translated by the recorded shift of
    the leaf containing it, plus that leaf's index.  Abscissas outside
    the 60-degree apex sector are rejected.

    An ExactScalar t in sqrt3*Q (as sector_abscissas gives) yields a
    segment in the tree's frame, ready for its exact predicates.  A
    rational t, which no frame holds with the shifts, yields one with
    ExactScalar coordinates, whose floats are those of Q(sqrt3).
    """
    graded = isinstance(t, ExactScalar) and not t.a
    t = scalar(t)
    # the cuts are sqrt3 * _cut(k, n); a graded t compares in the frame
    v, s = (t.b, 1) if graded else (t, SQRT3)
    n = 2 ** tree.spec.m
    if v < s * _cut(0, n) or v > s * _cut(n, n):
        raise GeomError("base abscissa %r outside the apex sector" % (t,))
    # float guess, then exact adjustment onto cuts k and k + 1
    k = int(math.floor((float(t) + float(BASE_HALF)) / float(ExactScalar(0, _Q(2, 3 * n)))))
    k = min(max(k, 0), n - 1)
    while k > 0 and v < s * _cut(k, n):
        k -= 1
    while k < n - 1 and v > s * _cut(k + 1, n):
        k += 1
    u = tree.piece_shifts[k].x
    if graded:
        return Segment2(Point2(u, 1), Point2(t.b + u, 0)), k
    return Segment2(Point2(ExactScalar(0, u), ONE), Point2(t + ExactScalar(0, u), ZERO)), k


def sector_abscissas(n_dirs: int) -> list[ExactScalar]:
    """n_dirs equispaced base abscissas across the apex sector."""
    if n_dirs < 1:
        raise GeomError("need at least one direction")
    if n_dirs == 1:
        return [ZERO]
    return [ExactScalar(0, _Q(2 * j - n_dirs + 1, 3 * (n_dirs - 1))) for j in range(n_dirs)]


@dataclass(frozen=True)
class CoverageReport:
    n_dirs: int
    covered: int
    failed: tuple[int, ...]

    @property
    def fraction(self) -> float:
        return self.covered / self.n_dirs


# Sampled directions that direction_coverage also tests on the region.
_REGION_CHECKS = 16


def _sector_failures(tree: PerronTree, n_dirs: int, stride: int = 0) -> list[int]:
    """Sector directions whose segment leaves its translated leaf or, at
    every stride-th direction, the region."""
    leaves = shifted_leaves(tree.spec)
    failed = []
    for j, t in enumerate(sector_abscissas(n_dirs)):
        seg, k = covering_segment(tree, t)
        # a triangle is convex, so endpoint membership settles the segment
        ok = all(point_in_polygon_closed(p, leaves[k]) for p in (seg.p, seg.q))
        if ok and stride and j % stride == 0:
            ok = contains_segment(tree.region, seg)
        if not ok:
            failed.append(j)
    return failed


def direction_coverage(tree: PerronTree, n_dirs: int) -> CoverageReport:
    """Check that every sampled apex direction survives the shifts.

    Each sampled segment must land inside its own translated leaf, which
    is a constituent of the union, hence inside the region.  A sparse
    subset (_REGION_CHECKS of them) is additionally tested against the
    full region boundary as a guard on the bookkeeping itself.
    """
    failed = _sector_failures(tree, n_dirs, max(1, n_dirs // _REGION_CHECKS))
    return CoverageReport(n_dirs, n_dirs - len(failed), tuple(failed))


def apex_turn(p: Point2, angle: int) -> Point2:
    """Rotation of a sqrt3-frame point by 0, 120 or 240 degrees about the
    apex: a rational affine map of (u, y)."""
    if angle == 0:
        return p
    h, d = p.x / 2, (p.y - 1) / 2
    if angle == 120:
        return Point2(-h - d, 1 + 3 * h - d)
    return Point2(-h + d, 1 - 3 * h - d)


def assemble_kakeya(tree: PerronTree) -> Region2:
    """Union of the tree with its 120 and 240 degree rotations about the apex.

    Built from the raw translated leaves of all three copies in one exact
    union; that equals the union of the three rotated regions as a point
    set, with far fewer input edges.
    """
    leaves = shifted_leaves(tree.spec)
    group = [[apex_turn(v, angle) for v in poly]
             for angle in (0, 120, 240) for poly in leaves]
    return _pieces(*overlay([group]), True)


def full_circle_coverage(tree: PerronTree, n_dirs: int) -> CoverageReport:
    """Coverage of the assembled three-copy set over the whole circle.

    n_dirs must be a multiple of 3; each rotated copy contributes one
    60-degree sector of directions (doubled by antipodes).  The 120- and
    240-degree rotations about the apex are exact in Q(sqrt 3) and carry
    each translated leaf and its segment together, so each sector
    direction j is certified once, against the unrotated leaf, and a
    failure is reported at j, j + n_dirs/3 and j + 2 n_dirs/3.
    """
    if n_dirs % 3 != 0:
        raise GeomError("full-circle direction count must be divisible by 3")
    per = n_dirs // 3
    bad = _sector_failures(tree, per)
    failed = tuple(j + c * per for c in range(3) for j in bad)
    return CoverageReport(n_dirs, n_dirs - len(failed), failed)


def tree_to_json(tree: PerronTree) -> str:
    """Canonical byte-exact encoding of a built tree.

    Keys: m; schedule (fraction strings); piece_shifts (eight integers
    per vector, same scalar encoding as region vertices); area (four
    integers); region (the Region2 object).
    """
    obj = {
        "m": tree.spec.m,
        "schedule": [str(s) for s in tree.spec.schedule],
        "piece_shifts": [
            list(ExactScalar(0, p.x).to_ints()) + list(ExactScalar(p.y).to_ints())
            for p in tree.piece_shifts
        ],
        "area": list(tree.area().to_ints()),
        "region": json.loads(tree.region.to_json()),
    }
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def tree_from_json(text: str) -> PerronTree:
    """Decode tree_to_json's encoding; GeomError if it is malformed.

    The region's pieces are validated as they enter, and its area is
    derived from them when asked, not read from the file.
    """
    try:
        obj = json.loads(text)
        spec = PerronSpec(obj["m"], tuple(Fraction(s) for s in obj["schedule"]))
        region = Region2(_decode_polygons(obj["region"]["polygons"]))
        (shifts,), _ = _to_frame(_decode_polygons([obj["piece_shifts"]]), True)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise GeomError("malformed tree JSON: %r" % (exc,)) from exc
    if not region.sqrt3:
        raise GeomError("tree region is not in the sqrt3 frame")
    if len(shifts) != 2 ** spec.m:
        raise GeomError("tree has %d piece shifts, want 2^%d" % (len(shifts), spec.m))
    return PerronTree(spec=spec, region=region, piece_shifts=tuple(shifts))
