"""Neighbourhood volume, dimension fit, and lower-bound check tests.

Closed-form neighbourhood areas (square, segment stadium, disc) anchor
the volume measurement; the dimension fixtures carry known exponents.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from capsule_fill_oracle import capsule_volume as oracle_capsule_volume
from region_union_oracle import region_volume as oracle_region_volume

from kakeyalab import boxdim
from kakeyalab.cli.main import dispatch
from kakeyalab.boxdim import (
    BoxCountCurve,
    DimError,
    kakeya_bound_check,
    minkowski_estimate,
    neighborhood_volume_curve,
)
from kakeyalab.exactgeom.primitives import Point2
from kakeyalab.exactgeom.region import Region2
from kakeyalab.exactgeom.scalar import ExactScalar
from kakeyalab.perron import PerronSpec, build_perron_tree
from kakeyalab.tubelab.core import family_to_json
from kakeyalab.tubelab.generate import generate_family, parallel_lines_family


def rational_point(x, y):
    return Point2(ExactScalar(Fraction(x)), ExactScalar(Fraction(y)))


def unit_square():
    return Region2.from_polygon([
        rational_point(0, 0), rational_point(1, 0),
        rational_point(1, 1), rational_point(0, 1)])


def cantor_intervals(level):
    iv = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        iv = [piece
              for a, b in iv
              for piece in ((a, a + (b - a) / 3), (b - (b - a) / 3, b))]
    return iv


def rect(x0, y0, x1, y1):
    return [rational_point(x0, y0), rational_point(x1, y0),
            rational_point(x1, y1), rational_point(x0, y1)]


@pytest.fixture(scope="module")
def tree_region():
    return build_perron_tree(PerronSpec.default(6)).region


@pytest.fixture(scope="module")
def cantor_curve():
    """Cantor level 10 x [0, 1] over 3^-2..3^-7: 4,096 outline edges, the
    slowest region fixture here, so it is measured once."""
    region = Region2([rect(a, 0, b, 1) for a, b in cantor_intervals(10)])
    return neighborhood_volume_curve(region, [3.0 ** -k for k in range(2, 8)])


class TestCurveValidation:
    def test_rejects_empty(self):
        with pytest.raises(DimError):
            BoxCountCurve(())

    def test_rejects_bad_delta(self):
        with pytest.raises(DimError):
            BoxCountCurve(((1.5, 1.0),))
        with pytest.raises(DimError):
            BoxCountCurve(((0.5, 1.0), (0.5, 1.0)))

    def test_rejects_bad_volume(self):
        with pytest.raises(DimError):
            BoxCountCurve(((0.5, 0.0),))
        with pytest.raises(DimError):
            BoxCountCurve(((0.5, 1.0), (0.25, 2.0)))

    def test_accessors(self):
        c = BoxCountCurve(((0.5, 2.0), (0.25, 1.0)))
        assert c.deltas == (0.5, 0.25)
        assert c.volumes == (2.0, 1.0)
        assert len(c) == 2


class TestVolumes:
    def test_square_matches_formula(self):
        curve = neighborhood_volume_curve(
            unit_square(), [2.0 ** -k for k in range(3, 10)])
        for d, v in curve.entries:
            assert abs(v - (1 + 2 * d) ** 2) <= 0.05 * (1 + 2 * d) ** 2

    def test_square_band_matches_exact_area(self):
        # N_dK minus K is the band of area 4d + pi d^2 exactly
        for k in range(3, 12):
            d = 2.0 ** -k
            band = neighborhood_volume_curve(unit_square(), [d]).volumes[0] - 1.0
            assert abs(band - (4 * d + math.pi * d * d)) <= 0.005 * (4 * d + math.pi * d * d)

    def test_segment_matches_stadium_formula(self):
        pts = np.column_stack([np.linspace(0, 1, 1 << 13), np.zeros(1 << 13)])
        curve = neighborhood_volume_curve(pts, [2.0 ** -k for k in range(3, 10)])
        for d, v in curve.entries:
            exact = 2 * d + math.pi * d * d
            assert abs(v - exact) <= 0.05 * exact

    def test_overlapping_polygons_measure_their_union(self):
        # [0,1]^2 and [1/2,3/2] x [0,1] overlap in a strip that an
        # even-odd fill would leave out; the union is one 3/2 x 1 rectangle
        half = Fraction(1, 2)
        squares = Region2([rect(0, 0, 1, 1), rect(half, 0, 3 * half, 1)])
        union = Region2.from_polygon(rect(0, 0, 3 * half, 1))
        ds = [2.0 ** -k for k in range(3, 7)]
        assert (neighborhood_volume_curve(squares, ds).entries
                == neighborhood_volume_curve(union, ds).entries)

    def test_deep_overlap_counts_once(self):
        # 128 coincident copies wind 128 deep and repeat every edge an
        # even number of times; the union is still the one square
        square = unit_square().polygons[0]
        one = neighborhood_volume_curve(unit_square(), [1 / 8])
        deep = neighborhood_volume_curve(Region2([square] * 128), [1 / 8])
        assert deep.entries == one.entries

    def test_disc_area_approaches_quarter_pi(self):
        denom = 1 << 20
        ring = [rational_point(Fraction(round(math.cos(a) * denom / 2), denom),
                               Fraction(round(math.sin(a) * denom / 2), denom))
                for a in np.linspace(0.0, 2 * math.pi, 512, endpoint=False)]
        curve = neighborhood_volume_curve(
            Region2.from_polygon(ring), [2.0 ** -k for k in range(4, 8)])
        for d, v in curve.entries:
            assert abs(v - math.pi * (0.5 + d) ** 2) <= 0.05 * v
        assert abs(curve.volumes[-1] - math.pi / 4) < 0.03

    def test_rejects_empty_inputs(self):
        with pytest.raises(DimError):
            neighborhood_volume_curve(np.zeros((0, 2)), [0.25])
        with pytest.raises(DimError):
            neighborhood_volume_curve(np.ones((3, 5)), [0.25])
        with pytest.raises(DimError):
            neighborhood_volume_curve(np.array([[np.inf, 0.0]]), [0.25])

    def test_rejects_bad_deltas(self):
        sq = unit_square()
        with pytest.raises(DimError):
            neighborhood_volume_curve(sq, [])
        with pytest.raises(DimError):
            neighborhood_volume_curve(sq, [0.25, 0.5])
        with pytest.raises(DimError):
            neighborhood_volume_curve(sq, [1.5])


class TestMinkowski:
    def test_square_dimension(self):
        # the coarse scales carry the (1+2d)^2 curvature, which biases
        # the least-squares slope low; the estimate still lands near 2
        curve = neighborhood_volume_curve(
            unit_square(), [2.0 ** -k for k in range(3, 10)])
        est = minkowski_estimate(curve, 2)
        assert 1.9 < est.dimension <= 2.0
        assert est.delta_range == (2.0 ** -4, 2.0 ** -8)

    def test_segment_dimension(self):
        pts = np.column_stack([np.linspace(0, 1, 1 << 13), np.zeros(1 << 13)])
        curve = neighborhood_volume_curve(pts, [2.0 ** -k for k in range(3, 10)])
        est = minkowski_estimate(curve, 2)
        assert abs(est.dimension - 1.0) < 0.05

    def test_cantor_product_dimension(self, cantor_curve):
        est = minkowski_estimate(cantor_curve, 2)
        assert abs(est.dimension - (1 + math.log(2) / math.log(3))) < 0.05

    def test_perfect_power_law_has_zero_residual(self):
        ds = [2.0 ** -k for k in range(3, 10)]
        curve = BoxCountCurve(tuple((d, d ** 0.5) for d in ds))
        est = minkowski_estimate(curve, 2)
        assert abs(est.dimension - 1.5) < 1e-12
        assert est.residual < 1e-12

    def test_clamps_to_ambient_range(self):
        ds = [2.0 ** -k for k in range(3, 10)]
        curve = BoxCountCurve(tuple((d, d ** 3) for d in ds))
        assert minkowski_estimate(curve, 2).dimension == 0.0

    @pytest.mark.parametrize("name", ["square", "segment", "cantor"])
    def test_error_bar_from_local_slopes(self, name, request):
        # the local slopes are known: they climb to 2 on the square and
        # to 1 on the segment from below (the stadium's curvature), and
        # on Cantor x [0, 1] they are those of the exact volumes
        # |C + [-d, d]| + 2 int_0^d |C + [-sqrt(d^2 - s^2), sqrt(d^2 - s^2)]| ds
        if name == "cantor":
            iv = cantor_intervals(10)
            curve = request.getfixturevalue("cantor_curve")
            ds = curve.deltas
        else:
            shape = unit_square() if name == "square" else np.column_stack(
                [np.linspace(0, 1, 1 << 13), np.zeros(1 << 13)])
            ds = [2.0 ** -k for k in range(3, 10)]
            curve = neighborhood_volume_curve(shape, ds)
        est = minkowski_estimate(curve, 2)
        local = np.array(est.local_slopes)
        assert len(local) == len(curve) - 1
        if name == "cantor":
            gaps = np.array([float(c - b) for (_, b), (c, _) in zip(iv, iv[1:])])

            def grown(r):  # |C + [-r, r]| for each r
                return len(iv) * 3.0 ** -10 + 2 * r + np.minimum(gaps, 2 * r[:, None]).sum(axis=1)

            exact = []
            for d in ds:
                s = (np.arange(2000) + 0.5) * d / 2000
                exact.append(grown(np.array([d]))[0] + 2 * grown(np.sqrt(d * d - s * s)).mean() * d)
            exact_local = 2 - np.diff(np.log(exact)) / np.diff(np.log(ds))
            assert exact_local == pytest.approx([1.5232, 1.5920, 1.6176, 1.6264, 1.6294],
                                                abs=1e-4)
            assert np.all(np.abs(local - exact_local) <= 0.005)
        else:
            target = 2.0 if name == "square" else 1.0
            assert np.all(np.diff(local) > 0) and np.all(local < target)
            assert local[-1] > target - 0.015
        # 3+ fitted scales: the larger of the least-squares standard error
        # of the slope and the full range of the local slopes between
        # fitted scales
        x = np.log(curve.deltas[1:-1])
        y = np.log(curve.volumes[1:-1])
        coef, cov = np.polyfit(x, y, 1, cov="unscaled")
        ssr = float(((y - np.polyval(coef, x)) ** 2).sum())
        assert est.uncertainty == pytest.approx(max(
            math.sqrt(ssr / (len(x) - 2) * cov[0, 0]), np.ptp(local[1:-1])))
        if name == "square":
            # the bending curve reads 1.9243, its slopes in the window
            # run 1.8375..1.9778: the bar covers the true 2
            assert abs(est.dimension - 2.0) <= est.uncertainty
        # a 4-scale curve fits 2 scales, one local slope: the error bar
        # is half the range of the three local slopes instead
        short = minkowski_estimate(BoxCountCurve(curve.entries[:4]), 2)
        assert short.local_slopes == pytest.approx(est.local_slopes[:3], abs=1e-12)
        assert short.dimension == pytest.approx(short.local_slopes[1], abs=1e-12)
        assert short.uncertainty == pytest.approx(
            (max(short.local_slopes) - min(short.local_slopes)) / 2, abs=1e-12)

    def test_validation(self):
        ds = [2.0 ** -k for k in range(3, 6)]
        short = BoxCountCurve(tuple((d, d) for d in ds))
        with pytest.raises(DimError):
            minkowski_estimate(short, 2)
        ok = BoxCountCurve(tuple((2.0 ** -k, 2.0 ** -k) for k in range(3, 8)))
        with pytest.raises(DimError):
            minkowski_estimate(ok, 4)


class TestKakeyaBound:
    def test_square_is_consistent(self):
        curve = neighborhood_volume_curve(
            unit_square(), [2.0 ** -k for k in range(3, 10)])
        rep = kakeya_bound_check(curve, 0.5)
        # order-one constant; d^-1/2 growth keeps the trend healthy
        assert rep.consistent
        assert 1.0 <= rep.c_epsilon <= 10.0
        assert rep.delta_at_min == 2.0 ** -3

    def test_perron_tree_is_consistent(self, tree_region):
        curve = neighborhood_volume_curve(
            tree_region, [2.0 ** -k for k in range(3, 9)])
        rep = kakeya_bound_check(curve, 0.5)
        assert rep.consistent
        assert rep.c_epsilon > 1.0

    def test_parallel_slab_decays(self):
        fam = parallel_lines_family(1 / 32)
        curve = neighborhood_volume_curve(fam, [2.0 ** -k for k in range(2, 6)])
        rep = kakeya_bound_check(curve, 0.5)
        assert not rep.consistent
        assert rep.ratios[-1] < 0.5 * rep.ratios[0]

    def test_validation(self):
        curve = BoxCountCurve(((0.5, 1.0), (0.25, 0.5)))
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(DimError):
                kakeya_bound_check(curve, eps)
        assert kakeya_bound_check(curve, 1.0).epsilon == 1.0


class TestInvariants:
    def test_volumes_monotone_on_tree(self, tree_region):
        curve = neighborhood_volume_curve(
            tree_region, [0.31, 0.17, 0.09, 0.05, 0.024])
        vols = curve.volumes
        assert all(a >= b for a, b in zip(vols, vols[1:]))

    def test_product_rule(self, cantor_curve):
        mids = np.array([[float(a + b) / 2, 0.0] for a, b in cantor_intervals(10)])
        dim_prod = minkowski_estimate(cantor_curve, 2)
        dim_base = minkowski_estimate(neighborhood_volume_curve(mids, cantor_curve.deltas), 2)
        assert abs(dim_prod.dimension - dim_base.dimension - 1.0) < 0.1

    def test_deterministic_and_thread_invariant(self, monkeypatch, tree_region):
        ds = [2.0 ** -k for k in range(3, 7)]
        a = neighborhood_volume_curve(tree_region, ds)
        monkeypatch.setenv("KAKEYA_LAB_THREADS", "3")
        b = neighborhood_volume_curve(tree_region, ds)
        assert a.entries == b.entries


def _lattice_polygon(draw, den):
    """A box or a triangle on the lattice (Z/den)^2."""
    pt = st.tuples(st.integers(0, 2 * den), st.integers(0, 2 * den))
    if draw(st.booleans()):
        (x0, y0), (x1, y1) = draw(pt), draw(pt)
        assume(x0 != x1 and y0 != y1)
        x0, x1 = sorted((x0, x1))
        y0, y1 = sorted((y0, y1))
        verts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    else:
        a, b, c = draw(pt), draw(pt), draw(pt)
        assume((b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0]))
        verts = [a, b, c]
    return [rational_point(Fraction(x, den), Fraction(y, den)) for x, y in verts]


@st.composite
def lattice_regions(draw):
    """1-5 possibly overlapping lattice boxes and triangles, in thirds
    (inexact doubles) or in 8ths or 64ths, where outline samples land
    exactly on row boundaries."""
    den = draw(st.sampled_from([3, 8, 64]))
    return Region2([_lattice_polygon(draw, den)
                    for _ in range(draw(st.integers(1, 5)))])


class TestStripFill:
    """The region's strip fill against the cell-by-cell union oracle,
    count for count."""

    def assert_same_as_oracle(self, region, deltas):
        want = [oracle_region_volume(region, d, d / boxdim._CELL_FACTOR) for d in deltas]
        assert list(neighborhood_volume_curve(region, deltas).volumes) == want

    def test_overlapping_squares(self):
        third = Fraction(1, 3)
        region = Region2([rect(0, 0, 1, 1), rect(third, third, 1 + third, 1 + third),
                          rect(third, 0, 2 * third, third), rect(0, 0, 1, 1)])
        self.assert_same_as_oracle(region, [2.0 ** -k for k in range(2, 7)])

    def test_coincident_copies(self):
        self.assert_same_as_oracle(Region2([rect(0, 0, 1, 1)] * 128), [1 / 4, 1 / 8])

    def assert_cantor(self, level):
        region = Region2([rect(a, 0, b, 1) for a, b in cantor_intervals(level)])
        self.assert_same_as_oracle(region, [3.0 ** -k for k in range(2, 6)])

    def test_cantor_levels_4_5(self):
        self.assert_cantor(4)
        self.assert_cantor(5)

    def test_cantor_level_6(self):
        self.assert_cantor(6)

    def test_slivers(self):
        # thinner than a cell at every scale: a 1/1024-wide strip, a
        # needle triangle, and a strip sharing an edge with a square
        tiny = Fraction(1, 1024)
        region = Region2([rect(0, 0, 1, tiny), rect(1, 0, 2, 1), rect(2, 0, 2 + tiny, 1),
                          [rational_point(0, 1), rational_point(1, 1 + tiny),
                           rational_point(0, 1 + tiny)]])
        self.assert_same_as_oracle(region, [1 / 4, 1 / 8, 1 / 13, 1 / 32])

    def test_fan(self):
        # seven triangles (0,0), (1, k/7), (1, (k+1)/7) sharing their
        # sides, which cancel out of the outline
        region = Region2([[rational_point(0, 0), rational_point(1, Fraction(k, 7)),
                           rational_point(1, Fraction(k + 1, 7))] for k in range(7)])
        self.assert_same_as_oracle(region, [1 / 4, 1 / 8, 1 / 13, 1 / 32, 1 / 50])

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(lattice_regions())
    def test_random_lattice_polygons(self, region):
        self.assert_same_as_oracle(region, [1 / 4, 1 / 8, 1 / 13])

    def test_m4_tree(self, monkeypatch):
        # the sqrt3 frame has no rational cell centres, so the m=4 tree is
        # checked against itself: strips of 2^13 cells (a few grid rows)
        # and blocks of 499 spans count what the package's sizes count
        region = build_perron_tree(PerronSpec.default(4)).region
        deltas = [2.0 ** -k for k in range(3, 8)]
        want = neighborhood_volume_curve(region, deltas).volumes
        monkeypatch.setattr(boxdim, "_LINE_STRIP_CELLS", 1 << 13)
        monkeypatch.setattr(boxdim, "_SPAN_BLOCK", 499)
        assert neighborhood_volume_curve(region, deltas).volumes == want


def capsule_arrays(fam):
    return fam.anchors, fam.omegas, fam.lengths


def random_segments(seed, dim, kind):
    """1-30 segments from [-1, 1]^dim: in general position, along an
    axis, on a 1/8 lattice (grid rows then lie exactly a reach away),
    within 1e-17..1e-3 of the x axis, half of them of zero length, or
    bare points (zero direction and length, as point clouds are)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 31))
    A = rng.uniform(-1, 1, (n, dim))
    W = rng.normal(size=(n, dim))
    L = rng.uniform(0, 1.5, n)
    if kind in ("axis", "lattice"):
        W = np.zeros((n, dim))
        W[np.arange(n), rng.integers(0, dim, n)] = rng.choice([-1.0, 1.0], n)
    if kind == "lattice":
        A, L = np.round(A * 8) / 8, np.round(L * 8) / 8
    if kind == "near-axis":
        W[:, 0] = 1.0
        W[:, 1:] *= 10.0 ** rng.uniform(-17, -3, (n, 1))
    W /= np.linalg.norm(W, axis=1)[:, None]
    if kind == "zero-length":
        L[rng.random(n) < 0.5] = 0.0
    if kind == "points":
        W[:], L[:] = 0.0, 0.0
    return A, W, L


class TestCapsuleFill:
    """The row-span fill against the per-tube box oracle, count for count."""

    def assert_same_as_oracle(self, A, W, L, width, deltas):
        for d in deltas:
            cell = d / boxdim._CELL_FACTOR
            assert (boxdim._capsule_volume(A, W, L, width + d, cell)
                    == oracle_capsule_volume(A, W, L, width + d, cell))

    def test_analysis_bush(self):
        fam = generate_family(2.0 ** -8, 2, "bush", seed=11)
        self.assert_same_as_oracle(*capsule_arrays(fam), fam.delta,
                                   [2.0 ** -k for k in range(5, 8)])

    def test_generated_families(self, monkeypatch):
        # the package's sizes, then strips of 2^13 cells (a few grid rows)
        # and blocks of 499 spans, so every family is cut across strips
        # and span blocks
        for strip, block in ((boxdim._LINE_STRIP_CELLS, boxdim._SPAN_BLOCK), (1 << 13, 499)):
            monkeypatch.setattr(boxdim, "_LINE_STRIP_CELLS", strip)
            monkeypatch.setattr(boxdim, "_SPAN_BLOCK", block)
            for fam, deltas in (
                    (generate_family(2.0 ** -5, 2, "bush", seed=0), [2.0 ** -k for k in range(3, 7)]),
                    (generate_family(2.0 ** -5, 2, "random", seed=1), [2.0 ** -k for k in range(3, 6)]),
                    (generate_family(2.0 ** -3, 3, "random", seed=2), [0.3, 0.2]),
                    (generate_family(2.0 ** -3, 3, "bush", seed=3), [0.3, 0.2]),
                    (parallel_lines_family(1 / 8), [0.25, 0.125])):
                self.assert_same_as_oracle(*capsule_arrays(fam), fam.delta, deltas)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "kind", ["general", "axis", "lattice", "near-axis", "zero-length", "points"])
    def test_random_segments(self, dim, kind):
        for seed in range(6):
            A, W, L = random_segments(seed, dim, kind)
            for cell, reach in ((1 / 16, 1 / 8), (1 / 32, 0.1), (1 / 40, 0.05)):
                assert (boxdim._capsule_volume(A, W, L, reach, cell)
                        == oracle_capsule_volume(A, W, L, reach, cell)), (seed, cell)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cell_centres_on_the_wall(self, dim):
        # Each segment is placed so that one cell centre lies a rounding
        # error from its side wall or its start cap; a zero-length
        # segment at the origin pins the grid.  The closed form alone
        # (no margin) and the distance test summed in another axis order
        # both miscount some of these cells.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            for reach, cell in ((0.1, 1 / 32), (0.07, 1 / 64), (1 / 3, 0.1)):
                n = 100
                g = -(reach + cell) + (rng.integers(int(2.0 / cell), int(2.4 / cell),
                                                    (n, dim)) + 0.5) * cell
                e, v = rng.normal(size=(2, n, dim))
                e /= np.linalg.norm(e, axis=1)[:, None]
                v /= np.linalg.norm(v, axis=1)[:, None]
                side = v - (v * e).sum(axis=1)[:, None] * e
                side /= np.linalg.norm(side, axis=1)[:, None]
                cap = v * np.sign((v * e).sum(axis=1))[:, None]
                s = rng.uniform(0.1, 0.3, (n, 1))
                A = np.where(rng.random((n, 1)) < 0.5, g + reach * side - s * e, g + reach * cap)
                A, W = np.vstack([np.zeros(dim), A]), np.vstack([np.zeros(dim), e])
                L = np.concatenate([[0.0], rng.uniform(0.4, 0.6, n)])
                assert (A + L[:, None] * W).min() >= 0.0 and A.min() >= 0.0
                assert (boxdim._capsule_volume(A, W, L, reach, cell)
                        == oracle_capsule_volume(A, W, L, reach, cell)), (seed, reach)

    def test_point_clouds(self):
        rng = np.random.default_rng(5)
        segment = np.column_stack([np.linspace(0, 1, 1 << 13), np.zeros(1 << 13)])
        for pts, deltas in ((segment, [2.0 ** -k for k in range(5, 10)]),
                            (rng.uniform(0, 1, (500, 2)), [2.0 ** -k for k in range(3, 8)]),
                            (rng.uniform(0, 1, (200, 3)), [2.0 ** -k for k in range(2, 5)])):
            curve = neighborhood_volume_curve(pts, deltas)
            want = [oracle_capsule_volume(pts, np.zeros_like(pts), np.zeros(len(pts)),
                                          d, d / boxdim._CELL_FACTOR) for d in deltas]
            assert list(curve.volumes) == want


@pytest.fixture(params=[0, math.inf], ids=["sorted", "dense"])
def forced_count(request, monkeypatch):
    """Force one strip count on every strip: at 0 cells per span every
    strip is counted from its sorted steps, at infinity from its dense
    difference array."""
    monkeypatch.setattr(boxdim, "_SPARSE_CELLS_PER_SPAN", request.param)


@pytest.mark.usefixtures("forced_count")
class TestStripFillForced(TestStripFill):
    """TestStripFill with each strip count forced on every strip."""


@pytest.mark.usefixtures("forced_count")
class TestCapsuleFillForced(TestCapsuleFill):
    """TestCapsuleFill with each strip count forced on every strip."""


class TestSortedCount:
    """The sorted count against np.add.at + cumsum + count_nonzero."""

    @staticmethod
    def dense_count(at, step, cells):
        diff = np.zeros(cells, dtype=np.int32)
        np.add.at(diff, at, step)
        return int(np.count_nonzero(np.cumsum(diff)))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_steps(self, seed):
        # lines of nx + 1 slots, each holding spans [a, b) as +1 at a and
        # -1 at b <= nx, or as winding pairs of either sign; positions
        # drawn from a few values so that many coincide, and a = b spans
        # whose steps cancel on one cell
        rng = np.random.default_rng(seed)
        nx, lines = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        n = int(rng.integers(0, 30))
        line = rng.integers(0, lines, n)
        a = rng.integers(0, nx + 1, n)
        b = np.where(rng.random(n) < 0.2, a, rng.integers(a, nx + 1))
        base = line * (nx + 1)
        at = np.concatenate([base + a, base + b])
        sign = rng.choice([1, -1], n)
        step = np.concatenate([sign, -sign])
        keys = 2 * at + (step > 0)
        cells = lines * (nx + 1)
        assert boxdim._sorted_count(keys, cells) == self.dense_count(at, step, cells)

    def test_edge_cases(self):
        empty = np.zeros(0, dtype=np.int64)
        assert boxdim._sorted_count(empty, 12) == 0
        # a span ending at a line's last slot nx = 5, and a cancelling pair
        at, step = np.array([2, 5, 8, 8]), np.array([1, -1, 1, -1])
        assert boxdim._sorted_count(2 * at + (step > 0), 12) == 3
        assert self.dense_count(at, step, 12) == 3


class TestAdmission:
    """Every scale is checked against its grid cap before any is filled."""

    @pytest.fixture
    def no_fill(self, monkeypatch):
        def fill(*args):
            raise AssertionError("a scale was filled")

        monkeypatch.setattr(boxdim, "_capsule_volume", fill)

    def test_curve_refuses_the_finest_scale(self, no_fill):
        # the analysis bush at 2^-11 needs 16458 x 8266 cells, over 2^27;
        # the unit square at 2^-14 needs over 2^31
        fam = generate_family(2.0 ** -8, 2, "bush", seed=11)
        with pytest.raises(DimError, match="136041828 cells"):
            neighborhood_volume_curve(fam, [2.0 ** -k for k in range(5, 12)])
        with pytest.raises(DimError, match="cells"):
            neighborhood_volume_curve(unit_square(), [2.0 ** -k for k in range(3, 15)])

    def test_cli_exits_2(self, no_fill, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(family_to_json(generate_family(2.0 ** -8, 2, "bush", seed=11)))
        assert dispatch(["dim", "--in", str(path), "--deltas", "2^-5..2^-11",
                         "--out", str(tmp_path / "d.csv")]) == 2
        assert not (tmp_path / "d.csv").exists()
