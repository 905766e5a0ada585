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
from .core import Tube, TubeError, TubeFamily

__all__ = [
    "direction_chord",
    "generate_directions",
    "generate_family",
    "parallel_lines_family",
]

def direction_chord(u: np.ndarray, v: np.ndarray) -> float:
    """Chord distance with antipodal identification."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    return min(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))


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


def generate_directions(delta: float, dim: int) -> np.ndarray:
    """Maximal delta-separated direction net, one representative per line.

    Rows are unit vectors; for dim 2 the angles are uniform on [0, pi),
    for dim 3 representatives have z >= 0.  Deterministic in (delta, dim).
    A net of more than _MAX_DIRECTIONS is refused before it is built.
    """
    if not (0.0 < delta < 1.0):
        raise TubeError(f"delta must lie in (0, 1), got {delta}")
    if dim not in (2, 3):
        raise TubeError(f"dim must be 2 or 3, got {dim}")
    dpad = delta * (1.0 + _PAD)
    rings, pole = _rings_3d(dpad) if dim == 3 else ([], False)
    n = (int(math.pi / (2.0 * math.asin(dpad / 2.0))) if dim == 2
         else sum(r[-1] for r in rings) + pole)
    if n > _MAX_DIRECTIONS:
        raise TubeError(f"a {dim}-D net at delta = {delta!r} has {n:,} directions, "
                        f"over the limit of {_MAX_DIRECTIONS:,}")
    return _directions_2d(n) if dim == 2 else _directions_3d(rings, pole)


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
    """
    dirs = generate_directions(delta, dim)
    if placement == "bush":
        tubes = [Tube(dim, np.zeros(dim), w, delta) for w in dirs]
    elif placement == "random":
        anchors = _random_ball(make_rng(seed, 0), len(dirs), dim)
        tubes = [Tube(dim, a, w, delta) for a, w in zip(anchors, dirs)]
    elif placement == "perron-base":
        if dim != 2:
            raise TubeError("perron-base placement is two-dimensional only")
        from ..perron import PerronSpec, build_perron_tree

        tree = build_perron_tree(PerronSpec.default(tree_levels))
        tubes = [_tree_segment_tube(float(math.atan2(w[1], w[0])), delta, tree)
                 for w in dirs]
    else:
        raise TubeError(f"unknown placement {placement!r}")
    return TubeFamily(delta, tuple(tubes), placement)


def _tree_segment_tube(theta: float, delta: float, tree) -> Tube:
    """Unit tube along the tracked segment of tree at line angle theta.

    The tree's own fan realises line angles in [60, 120) degrees; the
    other two thirds come from the 120/240 degree rotations about the
    apex, exactly as in the three-sector assembly of the full set.
    """
    from ..exactgeom import RigidMotion, Segment2
    from ..perron import APEX, BASE_HALF, covering_segment

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
    if turn:
        motion = RigidMotion.rotation(turn, APEX)
        seg = Segment2(motion.apply(seg.p), motion.apply(seg.q))
    p = np.array([float(seg.p.x), float(seg.p.y)])
    q = np.array([float(seg.q.x), float(seg.q.y)])
    w = q - p
    w /= np.linalg.norm(w)
    return Tube(2, p, w, delta)


# Most tubes parallel_lines_family builds: delta = 1/128.
_MAX_TUBES = 1 << 14


def parallel_lines_family(delta: float) -> TubeFamily:
    """All tubes joining {(dj, 0, 0)} to {(dk, 1, 0)}, j, k in 1..1/d.

    The scale must be an exact reciprocal integer; the family has
    delta^-2 tubes and realises the two-parallel-lines construction.
    """
    n_f = 1.0 / delta
    n = round(n_f)
    if n < 2 or abs(n_f - n) > 1e-9:
        raise TubeError(f"1/delta must be an integer >= 2, got {n_f}")
    if n * n > _MAX_TUBES:
        raise TubeError(f"parallel lines at 1/delta = {n} make {n * n:,} tubes, "
                        f"over the limit of {_MAX_TUBES:,}")
    tubes = []
    for j in range(1, n + 1):
        a = np.array([delta * j, 0.0, 0.0])
        for k in range(1, n + 1):
            b = np.array([delta * k, 1.0, 0.0])
            chord = b - a
            length = float(np.linalg.norm(chord))
            tubes.append(Tube(3, a, chord / length, delta, length))
    return TubeFamily(delta, tuple(tubes), "parallel-lines")
