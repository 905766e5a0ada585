"""Tube family construction, volume estimation, and structural checks."""

import dataclasses
import importlib
import itertools
import json
import math
import pkgutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kakeyalab
import kakeyalab.tubelab as tubelab
from kakeyalab import rng as rng_module
from kakeyalab.cli import dispatch
from kakeyalab.rng import make_rng
from kakeyalab.tubelab import (
    DistinctReport,
    TubeError,
    TubeFamily,
    TubeIndex,
    Prism,
    essentially_distinct_check,
    family_bbox,
    family_from_json,
    family_to_json,
    family_total_volume,
    fatten,
    generate_directions,
    generate_family,
    kakeya_ratio,
    parallel_lines_family,
    sticky_check,
    union_volume,
    wolff_axiom_check,
)
from kakeyalab.tubelab import checks, generate, volume
from kakeyalab.tubelab.core import _segment_distance_batch, in_tube

import prism_oracle
from distinct_oracle import essentially_distinct_check as oracle_distinct_check
from tube_index_oracle import index_arrays as oracle_index_arrays


def family(delta, *tubes, tag=""):
    """Family of (anchor, omega) tubes of length 1 and (anchor, omega,
    length) tubes."""
    A, W, L = zip(*((a, w, *rest, 1.0)[:3] for a, w, *rest in tubes))
    return TubeFamily(delta, A, W, L, tag)


def subfamily(fam, rows):
    """The tubes of fam at the given row indices, in that order."""
    return TubeFamily(fam.delta, fam.anchors[rows], fam.omegas[rows], fam.lengths[rows],
                      fam.placement_tag)


def tube_rows(fam):
    """(anchor, omega, length) of each tube, for tests that walk a family."""
    return list(zip(fam.anchors, fam.omegas, fam.lengths))


def tube_arrays(fam):
    """Anchors, far ends, directions and lengths, as the checks use them."""
    A, W, L = fam.anchors, fam.omegas, fam.lengths
    return A, A + L[:, None] * W, W, L


def prism_counts(prisms, fam) -> list[int]:
    """Tubes wholly inside each prism, counted by the Wolff check's kernel."""
    C, H, F = (np.array([getattr(p, k) for p in prisms])
               for k in ("center", "half_extents", "frame"))
    return checks._prism_counts(C, H, F, *tube_arrays(fam), fam.delta).tolist()


def prism_count(prism: Prism, fam) -> int:
    return prism_counts([prism], fam)[0]


def points_in_tube(pts, fam, i=0) -> np.ndarray:
    """Boolean mask: which rows of pts lie in the closed tube i of fam."""
    return in_tube(np.asarray(pts, dtype=float).T, fam.anchors[i], fam.omegas[i],
                   fam.lengths[i], fam.delta)


def segment_distance(p1, q1, p2, q2) -> float:
    """Minimal distance between segments [p1,q1] and [p2,q2]."""
    rows = [np.asarray(v, float)[None] for v in (p1, q1, p2, q2)]
    return float(_segment_distance_batch(*rows)[0])


def direction_chord(u, v) -> float:
    """Chord distance with antipodal identification."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    return min(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))


def overlap_fraction(fam, i: int, j: int, n: int, seed: int) -> float:
    """Fraction of tube i's volume inside tube j, by rejection sampling.

    Deliberately shares no code with the library check: PCG stream,
    square-then-reject disc sampling, scalar membership arithmetic.
    """
    rng = np.random.default_rng(seed)
    w = fam.omegas[i]
    if fam.dim == 2:
        frame = [np.array([-w[1], w[0]])]
        xy = rng.uniform(-fam.delta, fam.delta, size=(n, 1))
    else:
        seed_axis = np.zeros(3)
        seed_axis[np.argmin(np.abs(w))] = 1.0
        e1 = seed_axis - (seed_axis @ w) * w
        e1 /= np.linalg.norm(e1)
        frame = [e1, np.cross(w, e1)]
        kept = []
        while sum(len(k) for k in kept) < n:
            xy = rng.uniform(-fam.delta, fam.delta, size=(2 * n, 2))
            kept.append(xy[np.einsum("ij,ij->i", xy, xy) <= fam.delta**2])
        xy = np.concatenate(kept)[:n]
    t = rng.uniform(0.0, fam.lengths[i], size=n)
    pts = fam.anchors[i] + t[:, None] * w
    for k, e in enumerate(frame):
        pts = pts + xy[:, k : k + 1] * e
    return float(points_in_tube(pts, fam, j).mean())


def line_share(fam, i: int, j: int) -> float:
    """The distinct check's bound on the share of tube i inside tube j."""
    A, W, L = fam.anchors, fam.omegas, fam.lengths
    return float(checks._line_share(A[[i]], W[[i]], L[[i]], A[[j]], W[[j]],
                                    2.0 * fam.delta + 1e-12)[0])


def make_dyadic_fixture(delta: float) -> TubeFamily:
    """Parallel vertical tubes on the full delta-grid of anchors.

    At every dyadic rho the greedy coarsening tiles the anchor square
    into exact (rho/delta)^2 blocks, so per-tube child counts are
    uniform: the canonical sticky example.
    """
    n = round(1.0 / delta)
    anchors = [[delta * j, delta * k, 0.0] for j in range(1, n + 1) for k in range(1, n + 1)]
    return TubeFamily(delta, anchors, [[0.0, 0.0, 1.0]] * n * n, np.ones(n * n),
                      "dyadic-fixture")


class TestTubeBasics:
    def test_volume_formulas(self):
        assert family_total_volume(family(0.25, ([0, 0], [1, 0], 2.0))) == 2 * 0.25 * 2.0
        fam3 = family(0.1, ([0, 0, 0], [0, 0, 1], 0.5))
        assert family_total_volume(fam3) == pytest.approx(math.pi * 0.01 * 0.5, rel=1e-15)
        # per-tube volumes, added left to right
        fam = family(0.1, *(([0, 0], [1, 0], length) for length in (0.3, 0.7, 1.1)))
        assert family_total_volume(fam) == (2 * 0.1 * 0.3 + 2 * 0.1 * 0.7) + 2 * 0.1 * 1.1

    def test_validation(self):
        with pytest.raises(TubeError, match="unit vector"):
            family(0.1, ([0, 0], [1, 1]))  # not unit
        with pytest.raises(TubeError, match="delta must lie in"):
            family(0.0, ([0, 0], [1, 0]))
        with pytest.raises(TubeError, match="delta must lie in"):
            family(1.5, ([0, 0], [1, 0]))
        with pytest.raises(TubeError, match="must agree in shape"):
            family(0.1, ([0, 0], [1, 0, 0]))  # anchor dim mismatch
        with pytest.raises(TubeError, match="lengths must be positive"):
            family(0.1, ([0, 0], [1, 0], 0.0))
        with pytest.raises(TubeError, match="must be finite"):
            family(0.1, ([0, np.nan], [1, 0]))
        with pytest.raises(TubeError, match="must be finite"):
            family(0.1, ([0, 0], [1, 0], np.inf))
        with pytest.raises(TubeError, match=r"\(n, 2\) or \(n, 3\) array, got shape \(1, 4\)"):
            family(0.1, ([0, 0, 0, 0], [1, 0, 0, 0]))
        # radius 1 is the admitted ceiling (coarsest fattening scale)
        family(1.0, ([0, 0], [1, 0]))

    def test_membership_no_end_caps(self):
        t = family(0.1, ([0.0, 0.0], [1.0, 0.0], 1.0))
        pts = np.array(
            [
                [0.5, 0.099],   # inside
                [0.5, 0.101],   # above the wall
                [-0.001, 0.0],  # behind the start face
                [1.001, 0.0],   # past the end face
                [1.0, 0.1],     # corner, closed set
                [0.7, 0.1],     # on the wall, where |rel|^2 - t^2 rounds up
                [0.3, -0.1],    # on the opposite wall
            ]
        )
        want = [True, False, False, False, True, True, True]
        assert points_in_tube(pts, t).tolist() == want
        assert TubeIndex(t).contains(pts).tolist() == want

    def test_family_validation(self):
        with pytest.raises(TubeError, match="at least one tube"):
            TubeFamily(0.1, [], [], [])
        with pytest.raises(TubeError, match="one dimension"):
            family(0.1, ([0, 0], [1, 0]), ([0, 0, 0], [0, 0, 1]))  # mixed dimensions
        with pytest.raises(TubeError, match="must agree in shape"):
            TubeFamily(0.1, [[0, 0]], [[1, 0]], [1.0, 1.0])  # a length too many

    def test_fields_are_read_only_copies(self):
        anchors = np.zeros((2, 2))
        fam = TubeFamily(0.1, anchors, [[1, 0], [0, 1]], [1, 2])
        for field in (fam.anchors, fam.omegas, fam.lengths):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 0.5
        anchors[0, 0] = 0.5  # the caller's array stays writable and apart
        assert fam.anchors[0, 0] == 0.0
        assert fam.lengths.dtype == np.float64 and fam.dim == 2 and len(fam) == 2


class TestSegmentDistance:
    def test_exact_cases(self):
        assert segment_distance([0, 0], [1, 0], [0.5, -1], [0.5, 1]) == 0.0
        assert segment_distance([0, 0], [1, 0], [0, 0.3], [1, 0.3]) == pytest.approx(0.3)
        assert segment_distance([0, 0], [1, 0], [2, 0], [3, 0]) == pytest.approx(1.0)
        # skew in 3D: unit lines along x and y offset in z
        assert segment_distance(
            [0, 0, 0], [1, 0, 0], [0.5, -1, 0.25], [0.5, 1, 0.25]
        ) == pytest.approx(0.25)

    def test_against_dense_sampling(self):
        rng = make_rng(71, 0)
        grid = np.linspace(0.0, 1.0, 201)
        for _ in range(40):
            p1, q1, p2, q2 = rng.uniform(-1, 1, size=(4, 3))
            d = segment_distance(p1, q1, p2, q2)
            a = p1 + grid[:, None] * (q1 - p1)
            b = p2 + grid[:, None] * (q2 - p2)
            brute = np.min(
                np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
            )
            assert d <= brute + 1e-12
            assert brute - d <= 2e-2  # grid resolution slack

    def test_bit_identical_to_fixed_order_reference(self):
        # Every dot product adds its axes as (x0 + x1) + x2, so the
        # result does not depend on the SIMD width numpy was built for.
        def dot(u, v):
            return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]

        def clamp(x):
            return min(max(x, 0.0), 1.0)

        def reference(p1, q1, p2, q2):
            d1, d2, r = q1 - p1, q2 - p2, p1 - p2
            a, e, b, c, f = dot(d1, d1), dot(d2, d2), dot(d1, d2), dot(d1, r), dot(d2, r)
            den = a * e - b * b
            s = clamp((b * f - c * e) / den if den > 1e-30 else 0.0)
            t = clamp((b * s + f) / e if e > 1e-30 else 0.0)
            s = clamp((b * t - c) / a if a > 1e-30 else 0.0)
            diff = (p1 + s * d1) - (p2 + t * d2)
            return math.sqrt(dot(diff, diff))

        rng = make_rng(73, 0)
        for p1, q1, p2, q2 in rng.uniform(-1, 1, size=(500, 4, 3)):
            assert segment_distance(p1, q1, p2, q2) == reference(p1, q1, p2, q2)


class TestDirections2D:
    def test_degree_scale_count(self):
        dirs = generate_directions(math.pi / 180, 2)
        assert 170 <= len(dirs) <= 190

    def test_separation_exact(self):
        delta = math.pi / 180
        dirs = generate_directions(delta, 2)
        d2 = Fraction(delta) * Fraction(delta)
        for i in range(len(dirs)):
            ux, uy = Fraction(dirs[i][0]), Fraction(dirs[i][1])
            for j in range(i + 1, len(dirs)):
                vx, vy = Fraction(dirs[j][0]), Fraction(dirs[j][1])
                minus = (ux - vx) ** 2 + (uy - vy) ** 2
                plus = (ux + vx) ** 2 + (uy + vy) ** 2
                assert min(minus, plus) >= d2

    def test_maximal(self):
        delta = 0.05
        dirs = generate_directions(delta, 2)
        probe = np.linspace(0.0, math.pi, 100_000, endpoint=False)
        pts = np.stack([np.cos(probe), np.sin(probe)], axis=1)
        d2 = np.sum(pts**2, axis=1)[:, None] + np.sum(dirs**2, axis=1)[None, :]
        gap = np.sqrt(np.maximum(0, (d2 - 2 * np.abs(pts @ dirs.T)).min(axis=1)))
        assert gap.max() < delta

    def test_deterministic(self):
        a = generate_directions(0.03, 2)
        b = generate_directions(0.03, 2)
        assert np.array_equal(a, b)


class TestDirections3D:
    def test_count_window(self):
        dirs = generate_directions(0.1, 3)
        assert 100 <= len(dirs) <= int(2 * math.pi * 100)

    def test_separation_exact(self):
        delta = 0.2
        dirs = generate_directions(delta, 3)
        d2 = Fraction(delta) * Fraction(delta)
        frac = [[Fraction(x) for x in row] for row in dirs]
        for i in range(len(frac)):
            for j in range(i + 1, len(frac)):
                minus = sum((a - b) ** 2 for a, b in zip(frac[i], frac[j]))
                plus = sum((a + b) ** 2 for a, b in zip(frac[i], frac[j]))
                assert min(minus, plus) >= d2

    def test_maximal_dense_sampling(self):
        delta = 0.1
        dirs = generate_directions(delta, 3)
        rng = make_rng(1234, 0)
        pts = rng.normal(size=(100_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts[pts[:, 2] < 0] *= -1
        k2 = np.sum(dirs**2, axis=1)[None, :]
        worst = 0.0
        for a in range(0, len(pts), 8192):
            blk = pts[a : a + 8192]
            d2 = np.sum(blk**2, axis=1)[:, None] + k2
            near = d2 - 2.0 * np.abs(blk @ dirs.T)
            worst = max(worst, float(np.sqrt(np.maximum(near.min(axis=1), 0)).max()))
        assert worst < delta

    def test_unit_rows(self):
        dirs = generate_directions(0.15, 3)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12


class TestPlacements:
    def test_bush_through_origin(self):
        fam = generate_family(0.1, 3, "bush", seed=5)
        assert fam.placement_tag == "bush"
        assert len(fam) == len(generate_directions(0.1, 3))
        origin = np.zeros((1, 3))
        assert np.array_equal(fam.anchors, np.zeros((len(fam), 3)))
        for i in range(len(fam)):
            assert points_in_tube(origin, fam, i)[0]

    def test_random_anchors_in_ball(self):
        fam = generate_family(0.05, 2, "random", seed=9)
        radii = [float(np.linalg.norm(a)) for a in fam.anchors]
        assert max(radii) <= 1.0
        # genuinely spread out, not clumped at the centre
        assert np.std(radii) > 0.05

    def test_random_seed_dependence(self):
        a = generate_family(0.1, 3, "random", seed=1)
        b = generate_family(0.1, 3, "random", seed=2)
        assert family_to_json(a) != family_to_json(b)
        again = generate_family(0.1, 3, "random", seed=1)
        assert family_to_json(a) == family_to_json(again)

    def test_perron_base_dim3_rejected(self):
        with pytest.raises(TubeError):
            generate_family(0.1, 3, "perron-base")

    def test_unknown_placement(self):
        with pytest.raises(TubeError):
            generate_family(0.1, 2, "spiral")

    def test_perron_base_direction_match(self):
        fam = generate_family(1 / 8, 2, "perron-base", tree_levels=3)
        dirs = generate_directions(1 / 8, 2)
        assert len(fam) == len(dirs)
        for omega, w in zip(fam.omegas, dirs):
            assert direction_chord(omega, w) < 1e-9

    def test_perron_base_stays_near_tree(self):
        """Tube union against a grid oracle for the dilated tree region.

        Every occupied grid point must lie within delta (plus grid
        slack) of the assembled region, and the union area cannot
        exceed the dilated region's area by more than the band.
        """
        from kakeyalab.perron import PerronSpec, assemble_kakeya, build_perron_tree

        delta = 1 / 16
        m = 3
        fam = generate_family(delta, 2, "perron-base", tree_levels=m)
        region = assemble_kakeya(build_perron_tree(PerronSpec.default(m)))
        polys = [np.array(poly) for poly in region.floats()]

        index = TubeIndex(fam)
        lo, hi = family_bbox(fam)
        n = 220
        xs = np.linspace(lo[0], hi[0], n)
        ys = np.linspace(lo[1], hi[1], n)
        h = max((hi - lo) / (n - 1))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        occupied = index.contains(pts)

        inside = np.zeros(len(pts), dtype=bool)
        near = np.full(len(pts), np.inf)
        for poly in polys:
            crossing = np.zeros(len(pts), dtype=bool)
            for k in range(len(poly)):
                x1, y1 = poly[k]
                x2, y2 = poly[(k + 1) % len(poly)]
                cond = (y1 > pts[:, 1]) != (y2 > pts[:, 1])
                with np.errstate(divide="ignore", invalid="ignore"):
                    xc = x1 + (pts[:, 1] - y1) * (x2 - x1) / (y2 - y1)
                crossing ^= cond & (pts[:, 0] < xc)
                # distance to the edge segment
                e = np.array([x2 - x1, y2 - y1])
                ee = e @ e
                twr = np.clip(((pts - [x1, y1]) @ e) / ee, 0.0, 1.0)
                foot = np.array([x1, y1]) + twr[:, None] * e
                near = np.minimum(near, np.linalg.norm(pts - foot, axis=1))
            inside |= crossing
        dist = np.where(inside, 0.0, near)
        slack = delta + h * 1.5
        assert (dist[occupied] <= slack).all()

    def test_tube_delta_below_one_for_generation(self):
        with pytest.raises(TubeError):
            generate_directions(1.0, 2)
        with pytest.raises(TubeError):
            generate_directions(0.0, 3)


class TestParallelLines:
    def test_counts_and_geometry(self):
        delta = 1 / 16
        fam = parallel_lines_family(delta)
        assert len(fam) == 256
        assert fam.dim == 3
        assert fam.placement_tag == "parallel-lines"
        for a, w, length in tube_rows(fam):
            assert a[1] == 0.0 and a[2] == 0.0
            end = a + length * w
            assert end[1] == pytest.approx(1.0, abs=1e-12)
            assert end[2] == 0.0
            assert length == pytest.approx(
                math.hypot(end[0] - a[0], 1.0), rel=1e-12
            )

    def test_non_integer_scale_rejected(self):
        with pytest.raises(TubeError):
            parallel_lines_family(1 / 3.5)
        with pytest.raises(TubeError):
            parallel_lines_family(0.9)


class TestSizeGuard:
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached before the size guard")

    def test_parallel_lines_refused_before_allocating(self, monkeypatch):
        assert len(parallel_lines_family(1 / 128)) == 16_384  # at the limit
        monkeypatch.setattr(generate, "np", self.NoNumpy())
        with pytest.raises(TubeError, match=r"1/delta = 256 make 65,536 tubes, "
                                            r"over the limit of 16,384"):
            parallel_lines_family(1 / 256)

    def test_distinct_pairs_refused_before_allocating(self, monkeypatch):
        # the same tube repeated, so no family of this size is generated
        big, over = (TubeFamily(1 / 256, np.zeros((n, 3)), np.tile([1.0, 0.0, 0.0], (n, 1)),
                                np.ones(n)) for n in (65_536, 5_794))
        monkeypatch.setattr(checks, "np", self.NoNumpy())
        with pytest.raises(TubeError, match=r"65,536 tubes make 2,147,450,880 pairs"):
            essentially_distinct_check(big)
        # 5,793 tubes make 16,776,528 pairs, within the 2^24 limit
        with pytest.raises(TubeError, match=r"5,794 tubes make 16,782,321 pairs, "
                                            r"over the limit of 16,777,216"):
            essentially_distinct_check(over)

    def test_direction_nets_refused_before_allocating(self, monkeypatch):
        # 2^17 directions at most: 3-D delta = 2^-7 and 2-D 2^-15 are admitted
        assert len(generate_directions(2.0 ** -7, 3)) == 102_847
        assert len(generate_directions(2.0 ** -15, 2)) == 102_943
        monkeypatch.setattr(generate, "np", self.NoNumpy())
        with pytest.raises(TubeError, match=r"3-D net at delta = 0.00390625 has 411,576 "
                                            r"directions, over the limit of 131,072"):
            generate_directions(2.0 ** -8, 3)
        with pytest.raises(TubeError, match=r"2-D net at delta = 1.52587890625e-05 has "
                                            r"205,887 directions"):
            generate_directions(2.0 ** -16, 2)

    @pytest.mark.parametrize("delta, dim, placement, size", [
        (2.0 ** -7, 3, "bush", (102_847, 3)),
        (2.0 ** -15, 2, "random", (102_943, 2)),
        (0.25, 2, "perron-base", (12, 2)),
        (1 / 128, 2, "parallel-lines", (16_384, 3)),  # 3-D whatever dim says
    ])
    def test_family_size_from_parameters(self, monkeypatch, delta, dim, placement, size):
        fam = generate_family(delta, dim, placement)
        assert (len(fam), fam.dim) == size
        monkeypatch.setattr(generate, "np", self.NoNumpy())
        assert generate.family_size(delta, dim, placement) == size

    @pytest.mark.parametrize("delta, dim, placement, message", [
        # the placement rule comes before the net's size
        (2.0 ** -9, 3, "perron-base", "perron-base placement is two-dimensional only"),
        (0.2, 2, "pinwheel", "unknown placement 'pinwheel'"),
        (1.5, 2, "bush", r"delta must lie in \(0, 1\), got 1.5"),
        (1.0, 3, "parallel-lines", r"delta must lie in \(0, 1\), got 1.0"),
        (0.3, 3, "parallel-lines", "1/delta must be an integer >= 2"),
        (1e-320, 3, "parallel-lines", "1/delta must be an integer >= 2, got inf"),
        # the bands of a net this fine would not fit in memory
        (1e-12, 3, "bush", "a 3-D net at delta = 1e-12 has more directions than "
                           "the limit of 131,072"),
        (1e-320, 2, "random", "a 2-D net at delta = 1e-320 has more directions"),
    ])
    def test_family_size_refusals(self, monkeypatch, delta, dim, placement, message):
        monkeypatch.setattr(generate, "np", self.NoNumpy())
        with pytest.raises(TubeError, match=message):
            generate.family_size(delta, dim, placement)
        with pytest.raises(TubeError, match=message):
            generate_family(delta, dim, placement)

    def test_direction_net_cli_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(generate, "np", self.NoNumpy())
        out = tmp_path / "fam.json"
        argv = ["tubes", "gen", "--dim", "3", "--delta", repr(2.0 ** -8), "--out", str(out)]
        assert dispatch(argv) == 2
        assert "over the limit of 131,072" in capsys.readouterr().err
        assert not out.exists()

    def test_mc_samples_refused_before_allocating(self, monkeypatch):
        fam = parallel_lines_family(1 / 8)
        monkeypatch.setattr(volume, "np", self.NoNumpy())
        monkeypatch.setattr(rng_module, "np", self.NoNumpy())
        with pytest.raises(ValueError, match=r"1,073,741,825 Monte Carlo samples are "
                                             r"over the limit of 1,073,741,824"):
            union_volume(fam, samples=2**30 + 1)

    def test_grid_refused_before_allocating(self, monkeypatch):
        # 2^27 cells at most: 512^3 and 11,585^2 are admitted
        volume.admit_grid(512, 3)
        volume.admit_grid(11_585, 2)
        fam = generate_family(0.25, 3, "bush")
        monkeypatch.setattr(volume, "np", self.NoNumpy())
        with pytest.raises(TubeError, match=r"a 3-D grid at resolution 513 has 135,005,697 "
                                            r"cells, over the limit of 134,217,728"):
            union_volume(fam, "grid", resolution=513)
        with pytest.raises(TubeError, match=r"a 2-D grid at resolution 11,586 has "
                                            r"134,235,396 cells"):
            union_volume(generate_family(0.25, 2, "bush"), "grid", resolution=11_586)

    @pytest.mark.parametrize("flags", [
        ["--delta", "0.25", "--dim", "3", "--grid-res", "1000000"],
        # parallel lines are 3-D under the default --dim 2: 600^2 cells would pass
        ["--delta", "0.125", "--placement", "parallel-lines", "--grid-res", "600"],
    ])
    def test_grid_cli_exits_2(self, tmp_path, capsys, monkeypatch, flags):
        for module in (generate, volume):
            monkeypatch.setattr(module, "np", self.NoNumpy())
        out = tmp_path / "grid.csv"
        argv = ["tubes", "analyze", *flags, "--checks", "volume", "--method", "grid",
                "--out", str(out)]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a 3-D grid at resolution ")
        assert err.endswith(" cells, over the limit of 134,217,728\n")
        assert not out.exists()

    def test_mc_samples_cli_exits_2(self, tmp_path, capsys, monkeypatch):
        for module in (generate, volume, rng_module):
            monkeypatch.setattr(module, "np", self.NoNumpy())
        out = tmp_path / "bush.csv"
        argv = ["tubes", "analyze", "--delta", "0.125", "--checks", "volume",
                "--mc-samples", str(2**30 + 1), "--out", str(out)]
        assert dispatch(argv) == 2
        assert "over the limit of 1,073,741,824" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(generate, "np", self.NoNumpy())
        out = tmp_path / "slab.csv"
        argv = ["tubes", "analyze", "--delta", repr(1 / 256),
                "--placement", "parallel-lines", "--out", str(out)]
        assert dispatch(argv) == 2
        assert "65,536 tubes" in capsys.readouterr().err
        assert not out.exists()


class TestUnionVolume:
    def test_single_tube_grid_and_mc(self):
        fam = family(0.125, ([0, 0, 0], [1, 0, 0], 1.0))
        truth = math.pi * 0.125**2
        g = union_volume(fam, "grid", resolution=96)
        assert g.method == "grid" and g.resolution == 96
        assert abs(g.value - truth) <= g.std_error + 1e-12
        mc = union_volume(fam, "monte-carlo", samples=200_000, seed=3)
        assert mc.method == "monte-carlo" and mc.samples == 200_000
        assert abs(mc.value - truth) <= 5 * mc.std_error

    def test_disjoint_tubes_additive(self):
        delta = 0.1
        fam = family(delta, ([0, 0, 0], [1, 0, 0]), ([0, 0, 1], [1, 0, 0]),
                     ([0, 1, 0], [1, 0, 0]))
        total = family_total_volume(fam)
        g = union_volume(fam, "grid", resolution=128)
        lo, hi = family_bbox(fam)
        cell = (float(np.max(hi - lo)) / 128) ** 3
        assert abs(g.value - total) <= 2 * cell + g.std_error
        assert abs(kakeya_ratio(fam, g) - 1.0) <= (2 * cell + g.std_error) / total

    def test_union_between_max_and_sum(self):
        fam = generate_family(0.15, 2, "random", seed=21)
        est = union_volume(fam, "monte-carlo", samples=400_000, seed=4)
        biggest = 2.0 * fam.delta * fam.lengths.max()
        assert est.value + 4 * est.std_error >= biggest
        assert est.value - 4 * est.std_error <= family_total_volume(fam)

    def test_methods_agree(self):
        fam = generate_family(0.2, 2, "bush", seed=0)
        g = union_volume(fam, "grid", resolution=256)
        mc = union_volume(fam, "monte-carlo", samples=400_000, seed=11)
        assert abs(g.value - mc.value) <= 3 * (g.std_error + mc.std_error)

    def test_mc_pinned_seeded_value(self):
        # two sample chunks; the values were recorded before the Monte
        # Carlo chunk driver moved into kakeyalab.rng
        fam = generate_family(1 / 16, 2, "bush", seed=0)
        est = union_volume(fam, "monte-carlo", samples=300_000, seed=5)
        assert est.value == 1.669359800613845
        assert est.std_error == 0.0020002877015317467
        assert est.samples == 300_000

    def test_mc_deterministic_and_thread_invariant(self, monkeypatch):
        fam = generate_family(0.2, 2, "bush", seed=0)
        a = union_volume(fam, "monte-carlo", samples=300_000, seed=7)
        monkeypatch.setenv("KAKEYA_LAB_THREADS", "4")
        b = union_volume(fam, "monte-carlo", samples=300_000, seed=7)
        assert a == b

    def test_bad_args(self):
        fam = generate_family(0.2, 2, "bush")
        with pytest.raises(TubeError):
            union_volume(fam, "quadrature")
        with pytest.raises(TubeError):
            union_volume(fam, "monte-carlo", samples=0)
        with pytest.raises(TubeError):
            union_volume(fam, "grid", resolution=1)

    def test_parallel_lines_ratio_small(self):
        delta = 1 / 16
        fam = parallel_lines_family(delta)
        est = union_volume(fam, "monte-carlo", samples=400_000, seed=2)
        assert kakeya_ratio(fam, est) <= 8 * delta


class TestTubeIndex:
    @staticmethod
    def brute_force(fam, pts):
        # every tube, no index: the union of the public predicate
        out = np.zeros(len(pts), dtype=bool)
        for i in range(len(fam)):
            out |= points_in_tube(pts, fam, i)
        return out

    @pytest.mark.parametrize("make", [
        lambda: generate_family(2.0 ** -7, 2, "bush", seed=0),
        lambda: generate_family(0.125, 3, "random", seed=0),
        lambda: parallel_lines_family(1 / 16),
    ], ids=["bush-2d", "random-3d", "parallel-lines-3d"])
    def test_contains_matches_brute_force(self, make):
        # Uniform points, plus points a hair inside and outside tube
        # walls, where a missed candidate cell would show.
        fam = make()
        index = TubeIndex(fam)
        rng = make_rng(11, 0)
        lo, hi = family_bbox(fam)
        pts = [rng.uniform(lo, hi, size=(20_000, fam.dim))]
        for a, w, length in tube_rows(fam)[::max(1, len(fam) // 64)]:
            normal = np.linalg.svd(w[None, :])[2][-1]
            t = rng.uniform(0.0, length, size=(40, 1))
            r = fam.delta * (1.0 + rng.choice([-1e-9, 1e-9], size=(40, 1)))
            pts.append(a + t * w + r * normal)
        pts = np.vstack(pts)
        got = index.contains(pts)
        want = self.brute_force(fam, pts)
        assert np.array_equal(got, want)
        assert 0 < want.sum() < len(pts)

    def test_misses_in_crowded_cells_exhaust_their_candidates(self):
        # Parallel lines at delta = 1/16: every core lies in the plane
        # z = 0, so points a hair beyond |z| = delta are misses in every
        # cell however many candidates it holds, while in-plane wall
        # points split into hits and misses.
        fam = parallel_lines_family(1 / 16)
        index = TubeIndex(fam)
        sizes = np.diff(index.starts)
        crowded = np.flatnonzero(sizes >= 100)
        assert len(crowded) > 0
        rng = make_rng(12, 0)
        pts = []
        for k in crowded:
            for m in index.members[index.starts[k]:index.starts[k + 1]]:
                a, w, length = tube_rows(fam)[m]
                t = rng.uniform(0.0, length, size=(24, 1))
                core = a + t * w
                normal = np.cross(w, [0.0, 0.0, 1.0])
                side = rng.choice([-1.0, 1.0], size=(24, 1))
                r = fam.delta * (1.0 + rng.choice([-1e-9, 1e-9], size=(24, 1)))
                pts += [core + side * r * [0.0, 0.0, 1.0], core + side * r * normal]
        pts = np.vstack(pts)
        pts = pts[np.isin(index._cell_ids(pts), crowded)]
        got = index.contains(pts)
        want = self.brute_force(fam, pts)
        assert np.array_equal(got, want)
        beyond = np.abs(pts[:, 2]) > fam.delta
        assert beyond.sum() > 1000 and not got[beyond].any()
        assert 0 < got[~beyond].sum() < (~beyond).sum()

    @pytest.mark.parametrize("n_fan", [1, 5, 13, 25, 49])
    def test_only_cover_sorted_last(self, n_fan):
        # A fan of n_fan tubes leaves the centre of one index cell
        # leftwards, so they sort first there (distance 0).  A short
        # vertical probe through the cell's right half sorts last and is
        # the only cover of the cell's right edge.  Slot n_fan lies past
        # the first window, and in a window that a stride of twice the
        # window width would skip.
        d = 1 / 64
        length = 8 * d  # h = 2 d, so the fan's anchor is a cell centre
        phis = np.radians(np.linspace(-30.0, 30.0, n_fan))
        fan = [([0.0, 0.0], [-np.cos(p), np.sin(p)], length) for p in phis]
        fam = family(d, *fan, ([0.8 * d, -2 * d], [0.0, 1.0], 4 * d))
        index = TubeIndex(fam)
        cell = int(index._cell_ids(np.zeros((1, 2)))[0])
        bucket = index.members[index.starts[cell]:index.starts[cell + 1]]
        assert index.h == 2 * d and len(bucket) == n_fan + 1
        assert bucket[-1] == n_fan
        pts = make_rng(13, 0).uniform(-d, d, size=(4000, 2))
        got = index.contains(pts)
        want = self.brute_force(fam, pts)
        assert np.array_equal(got, want)
        only_probe = points_in_tube(pts, fam, n_fan) & ~self.brute_force(
            family(d, *fan), pts)
        assert only_probe.sum() > 100 and got[only_probe].all()

    @staticmethod
    def on_cell_walls(dim):
        # Axis-parallel cores starting at 0: delta = 1/64, h = 2 delta and
        # lo = -delta on every axis, so the cell walls sit at odd multiples
        # of 1/64, and so do the other coordinates of every core.
        d = 1 / 64
        tubes = []
        for axis in range(dim):
            for j in range(0, 12, 3):
                a = np.full(dim, (2 * j + 1) / 64)
                a[axis] = 0.0
                tubes.append((a, np.eye(dim)[axis], 0.75))
        return family(d, *tubes)

    FAMILIES = {
        "bush-2^-7": lambda: generate_family(2.0 ** -7, 2, "bush"),
        "bush-2^-8": lambda: generate_family(2.0 ** -8, 2, "bush"),
        "bush-2^-9": lambda: generate_family(2.0 ** -9, 2, "bush"),
        "random-2d": lambda: generate_family(2.0 ** -7, 2, "random", seed=3),
        "perron-base": lambda: generate_family(2.0 ** -6, 2, "perron-base", tree_levels=4),
        "random-3d": lambda: generate_family(1 / 16, 3, "random", seed=5),
        "parallel-lines-1/16": lambda: parallel_lines_family(1 / 16),
        "parallel-lines-1/32": lambda: parallel_lines_family(1 / 32),
        "single": lambda: family(0.01, ([0.1, 0.2], [0.6, 0.8])),
        "cell-walls-2d": lambda: TestTubeIndex.on_cell_walls(2),
        "cell-walls-3d": lambda: TestTubeIndex.on_cell_walls(3),
        # delta is below the ulp of 1, so the core ends on the hi face
        "hi-face": lambda: family(1e-20, ([0, 0], [1, 0])),
        "shorter-than-h/2": lambda: family(
            0.05, ([0, 0, 0], [0, 0, 1]), ([0.3, 0.3, 0.3], [1, 0, 0], 0.01)),
    }

    @pytest.mark.parametrize("name", FAMILIES)
    def test_build_equals_oracle(self, name):
        # the per-tube build (tests/tube_index_oracle.py), byte for byte
        fam = self.FAMILIES[name]()
        index = TubeIndex(fam)
        members, starts = oracle_index_arrays(index, fam)
        assert index.members.dtype == members.dtype and index.starts.dtype == starts.dtype
        assert np.array_equal(index.members, members)
        assert np.array_equal(index.starts, starts)

    def test_edge_families_hit_their_edge(self):
        walls = TubeIndex(self.on_cell_walls(3))
        assert walls.h == 1 / 32 and (walls.lo == -1 / 64).all()
        assert all(((a - walls.lo) / walls.h % 1 == 0).sum() == 2
                   for a in self.on_cell_walls(3).anchors)  # on a cell edge
        clip = TubeIndex(self.FAMILIES["hi-face"]())
        assert clip.hi[0] == 1.0 and (1.0 - clip.lo[0]) / clip.h == clip.shape[0]
        short = TubeIndex(self.FAMILIES["shorter-than-h/2"]())
        assert 0.01 < short.h / 2

    @pytest.mark.parametrize("name", ["bush-2^-7", "random-3d", "single"])
    @pytest.mark.parametrize("block", [1, 97, 1000])
    def test_build_equals_oracle_across_blocks(self, name, block, monkeypatch):
        # blocks of one tube, and blocks cut mid-family at odd sizes
        monkeypatch.setattr(volume, "_WALK_BLOCK", block)
        fam = self.FAMILIES[name]()
        index = TubeIndex(fam)
        members, starts = oracle_index_arrays(index, fam)
        assert np.array_equal(index.members, members)
        assert np.array_equal(index.starts, starts)

    def test_buckets_hold_the_cells_of_each_core(self):
        fam = generate_family(2.0 ** -6, 2, "random", seed=3)
        index = TubeIndex(fam)
        buckets = index.buckets
        assert sum(len(b) for b in buckets.values()) == len(index.members)
        for i, (a, w, length) in enumerate(tube_rows(fam)):
            core = a + np.linspace(0.0, length, 9)[:, None] * w
            for cell in index._cell_ids(core):
                assert i in buckets[int(cell)]


class TestEssentiallyDistinct:
    def test_identical_tubes_flagged(self):
        fam = family(0.1, ([0, 0, 0], [1, 0, 0]), ([0, 0, 0], [1, 0, 0]))
        rep = essentially_distinct_check(fam, samples_per_pair=128, seed=0)
        assert not rep.ok
        assert rep.flagged[0].estimate == 1.0

    def test_far_pairs_skip_sampling(self):
        rep = essentially_distinct_check(family(0.05, ([0, 0], [1, 0]), ([0, 5], [1, 0])))
        assert rep.n_pairs == 1 and rep.n_sampled == 0 and rep.ok

    def test_touching_parallel_not_flagged(self):
        delta = 0.1
        fam = family(delta, ([0, 0, 0], [1, 0, 0]), ([0, 2 * delta, 0], [1, 0, 0]))
        rep = essentially_distinct_check(fam, 256, seed=1)
        assert rep.n_sampled == 1 and rep.ok

    def test_orthogonal_crossing_not_flagged(self):
        delta = 0.05
        fam = family(delta, ([-0.5, 0], [1, 0]), ([0, -0.5], [0, 1]))
        # Line 2 stays within 2 delta of core 1 for 4 delta of its unit
        # length, so the line bound clears the pair without sampling.
        assert line_share(fam, 0, 1) == pytest.approx(4 * delta)
        rep = essentially_distinct_check(fam, 256, seed=1)
        assert rep.n_sampled == 0 and rep.ok

    def test_shared_anchor_minimal_separation_flagged(self):
        # Direction separation alone does not cap pairwise overlap: two
        # tubes a full delta apart in direction but sharing an anchor
        # diverge too slowly, and share roughly 0.69 of a tube.
        delta = 1 / 16
        theta = 2.0 * math.asin(delta / 2.0)
        w1 = (0.0, 1.0, 0.0)
        w2 = (math.sin(theta), math.cos(theta), 0.0)
        assert direction_chord(np.array(w1), np.array(w2)) == pytest.approx(delta)
        fam = family(delta, ([0, 0, 0], w1), ([0, 0, 0], w2))
        rep = essentially_distinct_check(fam, samples_per_pair=512, seed=3)
        assert len(rep.flagged) == 1
        assert overlap_fraction(fam, 0, 1, 1 << 16, 9) > 0.6

    def test_separation_dominating_radius_clean(self):
        # The honest form of the distinctness guarantee: once direction
        # separation is a few multiples of the radius, the overlap of a
        # length-1 pair is below delta/sin(theta) ~ 1/4 everywhere, even
        # for the worst anchors (a bush).
        dirs = generate_directions(1 / 2, 3)
        fam = TubeFamily(1 / 8, np.zeros_like(dirs), dirs, np.ones(len(dirs)), "bush")
        rep = essentially_distinct_check(fam, samples_per_pair=64, seed=5)
        assert rep.n_sampled > 0
        assert rep.ok

    def test_pinned_seeded_flags(self):
        # Two pair blocks of 32 pairs; the flags were recorded before the
        # sampler moved to per-axis arrays and the shared tube kernel.
        fam = subfamily(parallel_lines_family(1 / 8), slice(10))
        rep = essentially_distinct_check(fam, samples_per_pair=1 << 16, seed=4)
        # All 45 pairs pass the core-distance prefilter and fill the two
        # blocks; the line bound clears 7 of them before sampling.
        assert rep.n_sampled == 38
        assert [(p.i, p.j, p.estimate) for p in rep.flagged] == [
            (0, 1, 0.6889190673828125), (0, 8, 0.688385009765625),
            (1, 2, 0.695526123046875), (1, 8, 0.6954803466796875),
            (1, 9, 0.6876068115234375), (2, 3, 0.708587646484375),
            (2, 8, 0.5152130126953125), (2, 9, 0.68096923828125),
            (3, 4, 0.718475341796875), (3, 9, 0.5083770751953125),
            (4, 5, 0.7314300537109375), (4, 6, 0.514617919921875),
            (5, 6, 0.746978759765625), (5, 7, 0.5433807373046875),
            (6, 7, 0.7622833251953125), (8, 9, 0.683807373046875),
        ]

    def test_random_family_flags_are_genuine_and_rare(self):
        # Random anchors occasionally land two minimally-separated tubes
        # on top of each other; the flags this raises are real overlaps,
        # not sampling noise, and they stay rare.
        flags = []
        n_pairs = 0
        for seed in range(100):
            fam = generate_family(1 / 8, 3, "random", seed=seed)
            rep = essentially_distinct_check(fam, samples_per_pair=32, seed=seed)
            n_pairs += rep.n_pairs
            flags.extend((fam, p) for p in rep.flagged)
        assert 0 < len(flags) < 1e-4 * n_pairs
        confirmed = 0
        for k, (fam, pair) in enumerate(flags):
            est = overlap_fraction(fam, pair.i, pair.j, 8192, k)
            assert est > 0.4
            confirmed += est > 0.5
        assert confirmed >= 0.9 * len(flags)


class TestDistinctAgainstOracle:
    """The line bound only skips work: every flag, estimate and standard
    error equals the unbounded sampler's (`tests/distinct_oracle.py`)."""

    CASES = {
        "parallel-1/8": (lambda: parallel_lines_family(1 / 8), 1024, (0, 1, 2, 3)),
        "parallel-1/16": (lambda: parallel_lines_family(1 / 16), 256, (0, 1, 2)),
        "parallel-1/32": (lambda: parallel_lines_family(1 / 32), 64, (2, 3)),
        "random-3d": (lambda: generate_family(1 / 8, 3, "random", seed=5), 64, (0, 1, 2)),
        "bush-2d": (lambda: generate_family(2.0 ** -6, 2, "bush"), 256, (0, 1, 2)),
        "random-2d": (lambda: generate_family(2.0 ** -6, 2, "random", seed=7), 64, (0, 1, 2)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_flags_equal_oracle(self, case):
        make, samples, seeds = self.CASES[case]
        fam = make()
        for seed in seeds:
            got = essentially_distinct_check(fam, samples, seed)
            want = oracle_distinct_check(fam, samples, seed)
            key = [(p.i, p.j, p.estimate, p.std_error) for p in got.flagged]
            assert key == [(p.i, p.j, p.estimate, p.std_error) for p in want.flagged]
            assert got.n_pairs == want.n_pairs
            assert got.n_sampled <= want.n_sampled


class TestLiveUniform:
    """Counter-addressed draws equal the whole-block draw's live rows, bit
    for bit, also for S not a multiple of 4 (run offsets off the Philox
    4-output boundary), at live shares of 0, 1 and in between."""

    BOUNDS = {"2-D": ((0.0, 1.0), (-1.0, 1.0)),
              "3-D": ((0.0, 1.0), (0.0, 1.0), (0.0, 2.0 * math.pi))}

    @pytest.mark.parametrize("S", [1, 63, 64, 65])
    @pytest.mark.parametrize("share", [0.0, 0.02, 0.5, 0.97, 1.0])
    @pytest.mark.parametrize("arrays", list(BOUNDS))
    def test_rows_equal_whole_block(self, S, share, arrays):
        n = 517
        live = np.random.default_rng(S).random(n) < share
        if 0.0 < share < 1.0:
            live[[0, 1, 200, -1]] = True, False, True, True  # runs at both ends
        rng = make_rng(11, 4)
        got = [checks._live_uniform(rng, q, live, S, lo, hi)
               for q, (lo, hi) in enumerate(self.BOUNDS[arrays])]
        rng = make_rng(11, 4)
        want = [rng.uniform(lo, hi, size=(n, S))[live] for lo, hi in self.BOUNDS[arrays]]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (live.sum(), S)
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("S", [0, -3])
    def test_samples_per_pair_below_one_refused(self, S):
        with pytest.raises(TubeError, match=f"samples_per_pair must be at least 1, got {S}"):
            essentially_distinct_check(generate_family(1 / 8, 2, "bush"), samples_per_pair=S)


class TestLineBound:
    """A pair the distinct check clears without sampling never overlaps
    by more than half, checked by an independent sampler."""

    LIMIT = 0.5 + 5 * 0.5 / math.sqrt(4096)  # 1/2 + 5 sigma at 4096 samples

    @staticmethod
    def cleared_overlaps(fam, seed):
        """Sampled overlap of each ordered pair within 2 delta that a
        two-tube distinct check does not sample."""
        out = []
        A, B, _, _ = tube_arrays(fam)
        for k, (i, j) in enumerate(itertools.permutations(range(len(fam)), 2)):
            if segment_distance(A[i], B[i], A[j], B[j]) > 2 * fam.delta:
                continue
            if essentially_distinct_check(subfamily(fam, [i, j])).n_sampled:
                continue
            out.append(overlap_fraction(fam, i, j, 4096, seed * 100_003 + k))
        return np.array(out)

    @staticmethod
    def clustered(dim, delta, seed):
        """24 tubes of lengths 1/2..3/2 along nearly the same line."""
        rng = np.random.default_rng(seed)
        tubes = []
        for _ in range(24):
            w = np.eye(dim)[0] + 2 * delta * rng.normal(size=dim)
            a = 0.6 * delta * rng.normal(size=dim) - rng.uniform(0, 0.3) * w
            tubes.append((a, w / np.linalg.norm(w), rng.uniform(0.5, 1.5)))
        return family(delta, *tubes)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_families(self, dim, seed):
        fams = [self.clustered(dim, 1 / 16, seed),
                generate_family(1 / 8 if dim == 2 else 1 / 4, dim, "random", seed=seed)]
        for fam in fams:
            over = self.cleared_overlaps(fam, seed)
            assert len(over) > 0 and over.max() <= self.LIMIT

    @pytest.mark.parametrize("dim", [2, 3])
    def test_parallel_and_near_parallel_pairs(self, dim):
        # Parallel cores 0..2 delta apart, some shifted along the axis, and
        # cores crossing at angles of 1..4 delta at several positions.
        delta = 1 / 16
        ex, side = np.eye(dim)[0], np.eye(dim)[1]
        skew = np.eye(dim)[-1] if dim == 3 else 0 * ex
        tubes = [(0 * ex, ex)]
        for off in (0.0, 0.3, 0.6, 1.0, 1.4, 1.8, 2.0):
            for shift in (0.0, 0.3, 0.6):
                tubes.append((shift * ex + off * delta * side, ex))
        for turn in (1.0, 2.0, 4.0):
            w = ex + turn * delta * side
            w /= np.linalg.norm(w)
            for at in (0.2, 0.35, 0.5, 0.65, 0.8, 1.1):
                for lift in (0.0, 0.5):
                    a = at * ex + lift * delta * skew - 1.5 * w
                    tubes.append((a, w, 3.0))
        fam = family(delta, *tubes)
        over = self.cleared_overlaps(fam, dim)
        assert over.max() <= self.LIMIT
        # The set is not vacuous: many of its pairs overlap by more.
        every = [overlap_fraction(fam, 0, j, 4096, j - 1) for j in range(1, len(fam))]
        assert sum(o > self.LIMIT for o in every) >= 10


class TestWolff:
    def test_dim2_rejected(self):
        fam = generate_family(0.2, 2, "bush")
        with pytest.raises(TubeError):
            wolff_axiom_check(fam)

    def test_hand_counted_prism(self):
        delta = 0.1
        tubes = (([0, 0, 0], [1, 0, 0]), ([0, 0.2, 0], [1, 0, 0]), ([0, 3, 0], [1, 0, 0]))
        prism = Prism([0.5, 0.1, 0.0], [0.7, 0.5, 0.3], np.eye(3))
        assert prism_count(prism, family(delta, tubes[0])) == 1
        assert prism_count(prism, family(delta, tubes[1])) == 1
        assert prism_count(prism, family(delta, tubes[2])) == 0
        assert prism_count(prism, family(delta, *tubes)) == 2

    def test_grazing_containment_margin(self):
        delta = 0.125
        snug = Prism([0.5, 0.0, 0.0], [0.5, delta, delta], np.eye(3))
        assert prism_count(snug, family(delta, ([0, 0, 0], [1, 0, 0]))) == 1
        assert prism_count(snug, family(delta, ([0, 0, 1e-9], [1, 0, 0]))) == 0

    def test_random_family_no_violations(self):
        fam = generate_family(1 / 16, 3, "random", seed=13)
        rep = wolff_axiom_check(fam, n_prisms=2000, seed=13)
        assert rep.ok
        assert rep.n_checked >= 2000

    def test_parallel_lines_slab_flagged(self):
        delta = 1 / 32
        fam = parallel_lines_family(delta)
        rep = wolff_axiom_check(fam, n_prisms=500, seed=0)
        assert rep.slab.count == 1024
        assert rep.slab.ratio >= 10.0
        assert any(v.kind == "slab" for v in rep.violations)
        assert not rep.ok


class TestWolffAgainstOracle:
    """The batched, culled prism count equals the per-prism count of
    `tests/prism_oracle.py` on every prism, and the report is the same."""

    @staticmethod
    def key(c):
        p = c.prism
        return (c.kind, c.count, c.bound, p.center.tobytes(), p.half_extents.tobytes(),
                p.frame.tobytes())

    def assert_report_equal(self, fam, n_prisms, seed):
        got = wolff_axiom_check(fam, n_prisms, seed)
        want = prism_oracle.wolff_axiom_check(fam, n_prisms, seed)
        assert got.n_checked == want.n_checked == n_prisms + 4
        assert got.max_ratio == want.max_ratio and type(got.max_ratio) is float
        assert self.key(got.slab) == self.key(want.slab)
        assert [self.key(c) for c in got.violations] == [self.key(c) for c in want.violations]
        every = prism_oracle.prism_checks(fam, n_prisms, seed)
        assert prism_counts([c.prism for c in every], fam) == [c.count for c in every]
        return every

    @pytest.mark.parametrize("seed", [0, 1, 2, 13])
    def test_slab(self, seed):
        every = self.assert_report_equal(parallel_lines_family(1 / 32), 2000, seed)
        assert sum(c.count > 0 for c in every) >= 20  # not all culled or empty

    def test_no_random_prisms(self):
        every = self.assert_report_equal(parallel_lines_family(1 / 16), 0, 0)
        assert [c.kind for c in every] == ["slab", "fitted", "fitted", "fitted"]

    def test_mixed_lengths_about_the_cull(self):
        # Tubes along cube diagonals, lengths 1/4 to 1: a cube of half-extent
        # h holds the diagonal tube of length l when l <= 2 sqrt 3 (h - c delta),
        # c = sqrt(2/3) from the face margins.  Cubes around the shortest
        # tube sit just below and just above its cull line 2 sqrt 3 h = l.
        delta = 1e-6
        diag = np.ones(3) / math.sqrt(3.0)
        lengths = (0.25, 0.5, 0.5, 1.0)
        fam = family(delta, *(([0.1 * k, 0.0, 0.0] - 0.5 * l * diag, diag, l)
                              for k, l in enumerate(lengths)))
        prisms = [Prism([0.1 * k, 0.0, 0.0], [h] * 3, np.eye(3))
                  for k, l in enumerate(lengths)
                  for h in (l / (2 * math.sqrt(3.0)) + s * delta
                            for s in (-1e-3, 1e-3, 0.8, 0.82, 2.0))]
        A, B, W, L = tube_arrays(fam)
        want = [prism_oracle.prism_count(p, A, B, W, delta) for p in prisms]
        assert prism_counts(prisms, fam) == want
        assert want[:5] == [0, 0, 0, 1, 1]
        self.assert_report_equal(fam, 3000, 5)
        self.assert_report_equal(generate_family(1 / 8, 3, "random", seed=3), 2000, 1)


class TestFatten:
    def test_rho_below_delta_rejected(self):
        fam = generate_family(0.2, 2, "bush")
        with pytest.raises(TubeError):
            fatten(fam, 0.1)

    def test_rho_equal_delta_keeps_all(self):
        fam = generate_family(0.2, 2, "bush", seed=3)
        res = fatten(fam, 0.2)
        assert res.kept_indices == tuple(range(len(fam)))
        assert res.assignment == tuple(range(len(fam)))
        assert res.family.delta == 0.2

    def test_fixture_partitions_into_blocks(self):
        delta = 1 / 16
        fam = make_dyadic_fixture(delta)
        res = fatten(fam, 4 * delta)
        assert len(res.kept_indices) == 16
        counts = np.bincount(res.assignment)
        assert (counts == 16).all()

    def test_assignment_matches_bruteforce(self):
        delta = 1 / 8
        fam = make_dyadic_fixture(delta)
        rho = 2 * delta
        kept = []
        assign = []
        rows = tube_rows(fam)
        for i, (a, w, _) in enumerate(rows):
            home = None
            for slot, k in enumerate(kept):
                u_a, u_w, _ = rows[k]
                chord = direction_chord(w, u_w)
                off = a - u_a
                perp = off - (off @ u_w) * u_w
                if chord < rho and np.abs(perp[:2]).max() < rho:
                    home = slot
                    break
            if home is None:
                kept.append(i)
                home = len(kept) - 1
            assign.append(home)
        res = fatten(fam, rho)
        assert res.kept_indices == tuple(kept)
        assert res.assignment == tuple(assign)

    def test_kept_pairwise_not_close(self):
        fam = generate_family(0.1, 2, "random", seed=17)
        rho = 0.3
        res = fatten(fam, rho)
        A, W = res.family.anchors, res.family.omegas
        assert res.family.delta == rho and np.array_equal(A, fam.anchors[list(res.kept_indices)])
        for i in range(len(A)):
            for j in range(i + 1, len(A)):
                chord = direction_chord(W[i], W[j])
                off = A[j] - A[i]
                perp = off - (off @ W[i]) * W[i]
                assert not (chord < rho and float(np.abs(perp).max()) < rho)

    def test_bush_full_collapse_is_strong(self):
        """rho = 1 shrinks a bush to the handful of far-apart directions.

        A literal single survivor is impossible under the chord metric:
        perpendicular directions sit at distance sqrt(2) > 1, so two or
        three representatives always remain.
        """
        fam = generate_family(0.05, 2, "bush")
        res = fatten(fam, 1.0)
        assert 2 <= len(res.kept_indices) <= 3
        assert len(res.kept_indices) <= len(fam) // 20


class TestSticky:
    def test_fixture_sticky_all_dyadic_scales(self):
        fam = make_dyadic_fixture(1 / 16)
        rep = sticky_check(fam)
        assert [row.rho for row in rep.scales] == [
            1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0,
        ]
        assert rep.sticky
        for row in rep.scales:
            assert row.min_norm == row.max_norm == 1.0

    def test_parallel_lines_fails_somewhere(self):
        fam = parallel_lines_family(1 / 16)
        rep = sticky_check(fam)
        assert not rep.sticky

    def test_non_dyadic_needs_explicit_scales(self):
        fam = generate_family(0.3, 2, "bush")
        with pytest.raises(TubeError):
            sticky_check(fam)
        rep = sticky_check(fam, rhos=[0.3, 0.6])
        assert len(rep.scales) == 2

    def test_order_note_recorded(self):
        rep = sticky_check(make_dyadic_fixture(1 / 8))
        assert "order" in rep.order_note

    def test_plane_counts_use_dim_minus_one(self):
        # a kept rho-tube of the plane holds about rho/delta net directions:
        # the 2-D bush is sticky at every scale, with every norm near 1
        rep = sticky_check(generate_family(2.0 ** -5, 2, "bush"))
        assert len(rep.scales) == 6 and rep.sticky
        assert min(s.min_norm for s in rep.scales) == 0.25
        assert max(s.max_norm for s in rep.scales) == 2.09375
        # random anchors scatter the coarse tubes' children
        rep = sticky_check(generate_family(2.0 ** -5, 2, "random", seed=0))
        assert [s.rho for s in rep.scales if not s.ok] == [0.25, 0.5, 1.0]


def test_no_einsum_in_tubelab():
    # einsum's summation order over a 3-wide axis follows numpy's SIMD
    # width, so seeded 3-D results would differ between machines.
    for path in Path(tubelab.__file__).parent.glob("*.py"):
        assert "einsum" not in path.read_text(), path.name


def test_array_dataclasses_compare_by_identity():
    # a generated __eq__ compares ndarray fields with ==, whose truth value
    # raises, and a generated __hash__ hashes them, which raises too
    held = set()
    for info in pkgutil.walk_packages(kakeyalab.__path__, "kakeyalab."):
        for cls in vars(importlib.import_module(info.name)).values():
            if dataclasses.is_dataclass(cls) and isinstance(cls, type) and any(
                    "ndarray" in str(f.type) for f in dataclasses.fields(cls)):
                assert cls.__eq__ is object.__eq__, cls.__qualname__
                assert cls.__hash__ is object.__hash__, cls.__qualname__
                held.add(cls.__qualname__)
    assert {"TubeFamily", "Prism", "WavePacket", "FeffermanReport", "GridField"} <= held


def test_families_compare_by_identity():
    a, b = generate_family(0.25, 2, "bush"), generate_family(0.25, 2, "bush")
    assert a == a and a != b
    assert len({a, b, a}) == 2


class TestSerialization:
    def test_roundtrip_bytes(self):
        fam = generate_family(0.1, 3, "random", seed=42)
        text = family_to_json(fam)
        back = family_from_json(text)
        assert family_to_json(back) == text
        assert back.placement_tag == "random"
        assert len(back) == len(fam)
        assert np.array_equal(fam.anchors, back.anchors)
        assert np.array_equal(fam.omegas, back.omegas)
        assert np.array_equal(fam.lengths, back.lengths)

    def test_wire_shape(self):
        fam = family(0.5, ([0, 0], [1, 0]), tag="bush")
        doc = json.loads(family_to_json(fam))
        assert set(doc) == {"dim", "delta", "placement_tag", "tubes"}
        assert set(doc["tubes"][0]) == {"a", "omega", "len"}
