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

All shifts stay in Q(sqrt 3), so areas come out as exact equalities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactgeom import (
    ExactScalar,
    GeomError,
    HALF,
    INV_SQRT3,
    ONE,
    Point2,
    Region2,
    RigidMotion,
    Segment2,
    ZERO,
    contains_segment,
    point_in_polygon_closed,
    rational,
    region_area,
)
from .exactgeom.overlay import overlay
from .exactgeom.region import _decode_polygons, _pieces
from .exactgeom.scalar import scalar

APEX = Point2(ZERO, ONE)
BASE_HALF = INV_SQRT3
BASE_WIDTH = INV_SQRT3 + INV_SQRT3

BASE_TRIANGLE = (
    Point2(-BASE_HALF, ZERO),
    Point2(BASE_HALF, ZERO),
    APEX,
)


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
    base_triangle: Region2

    @property
    def m(self) -> int:
        return self.spec.m

    def area(self) -> ExactScalar:
        return region_area(self.region)


def bisect(spec: PerronSpec) -> list[list[Point2]]:
    """The 2^m fan triangles: common apex, equal base slots, CCW."""
    n = 2 ** spec.m
    w = BASE_WIDTH * scalar(Fraction(1, n))
    xs = [-BASE_HALF + w * scalar(k) for k in range(n + 1)]
    return [
        [Point2(xs[k], ZERO), Point2(xs[k + 1], ZERO), APEX]
        for k in range(n)
    ]


def leaf_shifts(spec: PerronSpec) -> list[ExactScalar]:
    """Horizontal translation of each leaf after all m pairing levels.

    At level i the paired blocks each span 2^(i-1) leaves; the left block
    of a pair moves +x and the right one -x, each by half of sigma_i
    times the block slot width 2^(i-1) * W / 2^m.
    """
    m = spec.m
    n = 2 ** m
    deltas = []
    for i in range(1, m + 1):
        bfix = BASE_WIDTH * scalar(Fraction(2 ** (i - 1), n))
        deltas.append(bfix * scalar(spec.schedule[i - 1]) * HALF)
    shifts = []
    for leaf in range(n):
        s = ZERO
        for i in range(1, m + 1):
            block = leaf >> (i - 1)
            if block % 2 == 0:
                s = s + deltas[i - 1]
            else:
                s = s - deltas[i - 1]
        shifts.append(s)
    return shifts


def shifted_leaves(spec: PerronSpec) -> list[list[Point2]]:
    polys = []
    for poly, sh in zip(bisect(spec), leaf_shifts(spec)):
        polys.append([Point2(v.x + sh, v.y) for v in poly])
    return polys


def build_perron_tree(spec: PerronSpec) -> PerronTree:
    """Run the cut-and-shift and return the exact normalized union."""
    region = _pieces(*overlay([shifted_leaves(spec)]))
    shifts = tuple(Point2(s, ZERO) for s in leaf_shifts(spec))
    base = Region2.from_polygon(list(BASE_TRIANGLE))
    return PerronTree(spec=spec, region=region, piece_shifts=shifts,
                      base_triangle=base)


def covering_segment(tree: PerronTree, t) -> tuple[Segment2, int]:
    """Shifted apex-to-base segment for base abscissa t in [-1/sqrt3, 1/sqrt3].

    A direction through the apex is parametrized by where it meets the
    base line.  Returns the segment translated by the recorded shift of
    the leaf containing it, plus that leaf's index.  Abscissas outside
    the 60-degree apex sector are rejected.
    """
    t = scalar(t) if not isinstance(t, ExactScalar) else t
    if t < -BASE_HALF or t > BASE_HALF:
        raise GeomError("base abscissa %s outside the apex sector" % (t,))
    n = 2 ** tree.spec.m
    w = BASE_WIDTH * scalar(Fraction(1, n))
    # float guess, then exact adjustment onto [x_k, x_{k+1}]
    k = int(math.floor((float(t) + float(BASE_HALF)) / float(w)))
    k = min(max(k, 0), n - 1)
    while k > 0 and t < -BASE_HALF + w * scalar(k):
        k -= 1
    while k < n - 1 and t > -BASE_HALF + w * scalar(k + 1):
        k += 1
    sh = tree.piece_shifts[k]
    seg = Segment2(APEX + sh, Point2(t + sh.x, ZERO))
    return seg, k


def sector_abscissas(n_dirs: int) -> list[ExactScalar]:
    """n_dirs equispaced base abscissas across the apex sector."""
    if n_dirs < 1:
        raise GeomError("need at least one direction")
    if n_dirs == 1:
        return [ZERO]
    step = Fraction(2, n_dirs - 1)
    return [BASE_HALF * scalar(-1 + step * j) for j in range(n_dirs)]


@dataclass(frozen=True)
class CoverageReport:
    n_dirs: int
    covered: int
    failed: tuple[int, ...]

    @property
    def fraction(self) -> float:
        return self.covered / self.n_dirs


def _segment_in_triangle(seg: Segment2, tri: list[Point2]) -> bool:
    # a triangle is convex, so endpoint membership settles the segment
    return point_in_polygon_closed(seg.p, tri) and point_in_polygon_closed(seg.q, tri)


# Sampled directions that direction_coverage also tests on the region.
_REGION_CHECKS = 16


def direction_coverage(tree: PerronTree, n_dirs: int) -> CoverageReport:
    """Check that every sampled apex direction survives the shifts.

    Each sampled segment must land inside its own translated leaf, which
    is a constituent of the union, hence inside the region.  A sparse
    subset (_REGION_CHECKS of them) is additionally tested against the
    full region boundary as a guard on the bookkeeping itself.
    """
    leaves = shifted_leaves(tree.spec)
    failed = []
    stride = max(1, n_dirs // _REGION_CHECKS)
    for j, t in enumerate(sector_abscissas(n_dirs)):
        seg, k = covering_segment(tree, t)
        ok = _segment_in_triangle(seg, leaves[k])
        if ok and j % stride == 0:
            ok = contains_segment(tree.region, seg)
        if not ok:
            failed.append(j)
    return CoverageReport(n_dirs, n_dirs - len(failed), tuple(failed))


def assemble_kakeya(tree: PerronTree) -> Region2:
    """Union of the tree with its 120 and 240 degree rotations about the apex.

    Built from the raw translated leaves of all three copies in one exact
    union; that equals the union of the three rotated regions as a point
    set, with far fewer input edges.
    """
    group = []
    leaves = shifted_leaves(tree.spec)
    for angle in (0, 120, 240):
        rot = RigidMotion.rotation(angle, APEX)
        for poly in leaves:
            group.append([rot.apply(v) for v in poly])
    return _pieces(*overlay([group]))


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
    leaves = shifted_leaves(tree.spec)
    bad = []
    for j, t in enumerate(sector_abscissas(per)):
        seg, k = covering_segment(tree, t)
        if not _segment_in_triangle(seg, leaves[k]):
            bad.append(j)
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
            list(p.x.to_ints()) + list(p.y.to_ints()) for p in tree.piece_shifts
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
        shifts = tuple(
            Point2(ExactScalar.from_ints(*enc[:4]), ExactScalar.from_ints(*enc[4:]))
            for enc in obj["piece_shifts"]
        )
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise GeomError("malformed tree JSON: %r" % (exc,)) from exc
    if len(shifts) != 2 ** spec.m:
        raise GeomError("tree has %d piece shifts, want 2^%d" % (len(shifts), spec.m))
    base = Region2.from_polygon(list(BASE_TRIANGLE))
    return PerronTree(spec=spec, region=region, piece_shifts=shifts,
                      base_triangle=base)
