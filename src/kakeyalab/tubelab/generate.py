"""Direction nets and family placement.

Directions live on the half-sphere with antipodes identified; distance
is the chord metric min(|u - v|, |u + v|).  Nets are delta-separated
and maximal: separated by construction, maximal by a greedy pass over
a dense candidate stream followed by lattice and random augmentation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..rng import make_rng
from .core import TubeError, TubeFamily

__all__ = [
    "family_size",
    "generate_directions",
    "generate_family",
    "parallel_lines_family",
]


# Relative padding on the separation target.  Spacings are computed
# for delta*(1+pad), so the 1e-16-scale rounding of the emitted float
# coordinates can never drag a chord below delta itself.
_PAD = 1e-11


def _directions_2d(n: int) -> np.ndarray:
    """Uniform angular lattice of n points on [0, pi).  Their chord
    spacing is 2 sin(pi/(2n)): the largest n keeping that >= delta,
    floor(pi / (2 asin(delta/2))), makes the maximal separated net."""
    theta = np.arange(n) * (math.pi / n)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _rings_3d(dpad: float) -> tuple[list[tuple[float, float, float, int, int]], bool]:
    """Bands of the 3-D net as (radius, z, span, stagger, size), and
    whether the pole joins them; see _directions_3d."""
    beta = 2.0 * math.asin(dpad / 2.0)
    polars = [(math.pi / 2.0, math.pi, 0)]
    while polars[-1][0] - beta > 1e-9:
        polars.append((math.pi / 2.0 - len(polars) * beta, 2.0 * math.pi, len(polars) % 2))
    rings = []
    for polar, span, stagger in polars:
        r = math.sin(polar)
        # a ring of diameter 2r <= delta can hold one point only
        m = 1 if dpad >= 2.0 * r else max(1, int(span / (2.0 * math.asin(dpad / (2.0 * r)))))
        rings.append((r, math.cos(polar), span, stagger, m))
    return rings, 2.0 * math.sin(polars[-1][0] / 2.0) >= dpad


def _directions_3d(rings: list[tuple[float, float, float, int, int]], pole: bool) -> np.ndarray:
    """Staggered latitude-band net on the upper half-sphere.

    The equator ring comes first and keeps only half its azimuths, so
    the identification of antipodes cannot bring two of its points
    within delta of each other.  Higher bands sit 2 asin(delta/2)
    apart in polar angle, which keeps inter-band chords at least
    delta, including chords to reflected lower-half images; within a
    band the azimuth step is the smallest giving chord >= delta.
    Cell half-diagonals stay well under delta, so the net is maximal:
    no direction is delta-far from every chosen one.
    """
    rows = []
    for r, z, span, stagger, m in rings:
        phi = (np.arange(m) + 0.5 * stagger) * (span / m)
        rows.append(np.stack([r * np.cos(phi), r * np.sin(phi), np.full(m, z)], axis=1))
    if pole:
        rows.append(np.array([[0.0, 0.0, 1.0]]))
    return np.concatenate(rows)


# Most directions generate_directions builds: 3-D delta = 2^-7 makes 102,847.
_MAX_DIRECTIONS = 1 << 17
# Most tubes parallel_lines_family builds: delta = 1/128.
_MAX_TUBES = 1 << 14


def family_size(delta: float, dim: int, placement: str) -> tuple[int, int]:
    """(tubes, ambient dim) of the family placed at (delta, dim), or the
    TubeError of the first placement rule or size limit broken, from the
    parameters alone.  Parallel lines are 3-D whatever dim says."""
    if placement == "perron-base" and dim != 2:
        raise TubeError("perron-base placement is two-dimensional only")
    if not (0.0 < delta < 1.0):
        raise TubeError(f"delta must lie in (0, 1), got {delta}")
    if placement == "parallel-lines":
        n_f = 1.0 / delta
        n = round(n_f) if math.isfinite(n_f) else 0
        if n < 2 or abs(n_f - n) > 1e-9:
            raise TubeError(f"1/delta must be an integer >= 2, got {n_f}")
        if n * n > _MAX_TUBES:
            raise TubeError(f"parallel lines at 1/delta = {n} make {n * n:,} tubes, "
                            f"over the limit of {_MAX_TUBES:,}")
        return n * n, 3
    if placement not in ("bush", "random", "perron-base"):
        raise TubeError(f"unknown placement {placement!r}")
    if dim not in (2, 3):
        raise TubeError(f"dim must be 2 or 3, got {dim}")
    dpad = delta * (1.0 + _PAD)
    flat = math.pi / (2.0 * math.asin(dpad / 2.0))  # the 2-D count
    # a 3-D equator alone holds as many, so past the limit its ~1/delta bands are not walked
    if flat > _MAX_DIRECTIONS and (dim == 3 or math.isinf(flat)):
        raise TubeError(f"a {dim}-D net at delta = {delta!r} has more directions "
                        f"than the limit of {_MAX_DIRECTIONS:,}")
    rings, pole = _rings_3d(dpad) if dim == 3 else ([], False)
    n = int(flat) if dim == 2 else sum(r[-1] for r in rings) + pole
    if n > _MAX_DIRECTIONS:
        raise TubeError(f"a {dim}-D net at delta = {delta!r} has {n:,} directions, "
                        f"over the limit of {_MAX_DIRECTIONS:,}")
    return n, dim


def generate_directions(delta: float, dim: int) -> np.ndarray:
    """Maximal delta-separated direction net, one representative per line.

    Rows are unit vectors; for dim 2 the angles are uniform on [0, pi),
    for dim 3 representatives have z >= 0.  Deterministic in (delta, dim).
    A net of more than _MAX_DIRECTIONS is refused before it is built.
    """
    n, _ = family_size(delta, dim, "bush")  # a bush has a tube per direction
    return _directions_2d(n) if dim == 2 else _directions_3d(*_rings_3d(delta * (1.0 + _PAD)))


def _random_ball(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    out = np.empty((n, dim))
    have = 0
    while have < n:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (n - have) + 16, dim))
        cand = cand[np.sum(cand**2, axis=1) <= 1.0]
        take = min(len(cand), n - have)
        out[have : have + take] = cand[:take]
        have += take
    return out


def generate_family(
    delta: float,
    dim: int,
    placement: str,
    seed: int = 0,
    tree_levels: int = 6,
) -> TubeFamily:
    """One tube per net direction, anchored by the placement rule.

    bush: every core segment starts at the origin.
    random: anchors drawn uniformly from the unit ball.
    perron-base (dim 2 only): cores are tracked segments of the shifted
    tree with `tree_levels` levels, rotated into the sector that holds
    the requested direction.
    parallel-lines: parallel_lines_family(delta), whatever dim says.
    """
    family_size(delta, dim, placement)
    if placement == "parallel-lines":
        return parallel_lines_family(delta)
    dirs = generate_directions(delta, dim)
    anchors = np.zeros_like(dirs)
    if placement == "random":
        anchors = _random_ball(make_rng(seed, 0), len(dirs), dim)
    elif placement == "perron-base":
        from ..perron import PerronSpec, build_perron_tree

        tree = build_perron_tree(PerronSpec.default(tree_levels))
        anchors, dirs = zip(*(_tree_segment_tube(float(math.atan2(w[1], w[0])), tree)
                              for w in dirs))
    return TubeFamily(delta, anchors, dirs, np.ones(len(dirs)), placement)


def _tree_segment_tube(theta: float, tree) -> tuple[np.ndarray, np.ndarray]:
    """Anchor and direction of the unit tube along the tracked segment of
    tree at line angle theta.

    The tree's own fan realises line angles in [60, 120) degrees; the
    other two thirds come from the 120/240 degree rotations about the
    apex, exactly as in the three-sector assembly of the full set.
    Each segment end is (a + sqrt3*u, y) with rational a, u and y: the
    frame point (u, y) turns by apex_turn, and a by the rotation's
    linear part alone, to (-a/2, +-sqrt3*a/2).
    """
    from ..exactgeom import Point2
    from ..exactgeom.scalar import SQRT3_FLOAT
    from ..perron import BASE_HALF, apex_turn, covering_segment

    deg = math.degrees(theta % math.pi)
    if 60.0 <= deg < 120.0:
        turn = 0
    elif deg < 60.0:
        turn = 120
    else:
        turn = 240
    sector_deg = (deg - turn) % 180.0
    t = math.tan(math.radians(sector_deg - 90.0))
    bh = float(BASE_HALF) * (1.0 - 1e-14)
    seg, _ = covering_segment(tree, Fraction(min(max(t, -bh), bh)))
    ends = []
    for end in (seg.p, seg.q):
        a = end.x.a
        f = apex_turn(Point2(end.x.b, end.y.a), turn)
        ra, rb = (a, 0) if not turn else (-a / 2, (a if turn == 120 else -a) / 2)
        # the doubles of (ra + sqrt3*f.x, f.y + sqrt3*rb), as float(ExactScalar)
        ends.append(np.array([float(ra) + float(f.x) * SQRT3_FLOAT,
                              float(f.y) + float(rb) * SQRT3_FLOAT]))
    p, q = ends
    w = q - p
    w /= np.linalg.norm(w)
    return p, w


def parallel_lines_family(delta: float) -> TubeFamily:
    """All tubes joining {(dj, 0, 0)} to {(dk, 1, 0)}, j, k in 1..1/d.

    The scale must be an exact reciprocal integer; the family has
    delta^-2 tubes and realises the two-parallel-lines construction.
    """
    n = math.isqrt(family_size(delta, 3, "parallel-lines")[0])
    x = delta * np.arange(1, n + 1)
    zeros = np.zeros(n * n)
    anchors = np.stack([np.repeat(x, n), zeros, zeros], axis=1)
    chords = np.stack([np.tile(x, n), np.ones(n * n), zeros], axis=1) - anchors
    lengths = np.linalg.norm(chords, axis=1)
    return TubeFamily(delta, anchors, chords / lengths[:, None], lengths, "parallel-lines")
