"""Heisenberg surface defect, the surface chart, and the volume exhibit."""

import math
from fractions import Fraction

import numpy as np
import pytest

import heisenberg_oracle
from kakeyalab import heisenberg
from kakeyalab import rng as rng_module
from kakeyalab.cli import dispatch
from kakeyalab.heisenberg import (
    MEMBERSHIP_CALIBRATION,
    ComplexLineParams,
    CPoint3,
    HeisenbergError,
    complex_tube_volume,
    heisenberg_neighborhood_volume,
    lattice_count,
    membership_defect,
    surface_line_point,
    surface_segment_points,
    _real_defect,
)
from kakeyalab.rng import MAX_MC_SAMPLES, admit_samples, make_rng

POLYDISC = (4.0 * math.pi) ** 3


class TestDefect:
    def test_pinned_values(self):
        assert membership_defect(CPoint3(0, 1, 1, 0, 1, 0)) == 1.0
        assert membership_defect(CPoint3(0, 0, 0, 0, 0, 0)) == 0.0

    def test_matches_rational_expansion(self):
        # Im(z2 conj(z3)) expands to y2 x3 - x2 y3; redo the arithmetic
        # in exact rationals and compare.
        rng = np.random.default_rng(21)
        for _ in range(60):
            num = rng.integers(-64, 65, size=6)
            den = rng.integers(1, 17, size=6)
            q = [Fraction(int(a), int(b)) for a, b in zip(num, den)]
            exact = abs(q[1] - (q[3] * q[4] - q[2] * q[5]))
            p = CPoint3(*[float(v) for v in q])
            assert membership_defect(p) == pytest.approx(float(exact), abs=1e-12)


class TestSurfaceChart:
    def test_defect_vanishes_for_all_params(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            r, phi = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)
            p = ComplexLineParams(float(a), float(b), r * np.exp(1j * phi))
            worst = max(membership_defect(q) for q in surface_segment_points(p, 64))
            assert worst < 1e-12

    def test_stays_in_polydisc(self):
        p = ComplexLineParams(1.0, -1.0, -1 + 0j)
        for q in surface_segment_points(p, 64):
            assert max(abs(q.z1), abs(q.z2), abs(q.z3)) <= 2.0
            assert abs(q.z2) <= 0.5 + 1e-15

    def test_segment_needs_a_sample(self):
        with pytest.raises(HeisenbergError):
            surface_segment_points(ComplexLineParams(0, 0, 0j), 0)


class TestFamily:
    def test_quarter_lattice_count(self):
        assert lattice_count(1 / 4) == 3969

    def test_count_growth_near_sixteen(self):
        ratio = lattice_count(1 / 8) / lattice_count(1 / 4)
        assert 12.0 < ratio < 16.0

    def test_w_bound_trims_box_corners(self):
        # brute-force count of (delta Z)^4 in [-1,1]^4 with |w| <= 1
        ticks = range(-4, 5)
        kept = sum(1 for wr in ticks for wi in ticks if wr * wr + wi * wi <= 16)
        assert lattice_count(1 / 4) == 9 * 9 * kept < 9**4

    def test_non_integer_inverse_delta_rejected(self):
        with pytest.raises(HeisenbergError):
            lattice_count(0.3)

    @pytest.mark.parametrize("delta", [0.0, -0.25, math.nan, math.inf, 2.0**-21])
    def test_bad_delta_refused_before_counting(self, delta):
        with pytest.raises(HeisenbergError, match="positive integer|over the limit"):
            lattice_count(delta)

    def test_finest_admitted_delta(self):
        # the disc count at the cap: about half a second
        assert lattice_count(2.0**-20) > 0

    def test_parameter_bounds_enforced(self):
        with pytest.raises(HeisenbergError):
            ComplexLineParams(1.2, 0.0, 0j)
        with pytest.raises(HeisenbergError):
            ComplexLineParams(0.0, 0.0, 0.8 + 0.8j)


class TestVolumes:
    def test_tube_sum_has_constant_order(self):
        sums = [
            lattice_count(2.0**-k) * complex_tube_volume(2.0**-k)
            for k in range(4, 8)
        ]
        assert all(85.0 < s < 115.0 for s in sums)
        for a, b in zip(sums, sums[1:]):
            assert 0.9 < b / a < 1.0

    def test_neighborhood_saturates(self):
        # The defect never exceeds 2 + 2*2 = 6 on the polydisc, so the
        # fraction hits 1 exactly from delta = 6 and is within 2% of it
        # already at the box scale delta = 4.
        est = heisenberg_neighborhood_volume(6.0, 20_000, seed=2)
        assert est.value == pytest.approx(POLYDISC, rel=1e-15)
        assert est.std_error == 0.0
        near = heisenberg_neighborhood_volume(4.0, 20_000, seed=2)
        assert near.value >= 0.95 * POLYDISC

    def test_volume_linear_in_delta(self):
        a = heisenberg_neighborhood_volume(2.0**-4, 400_000, seed=3)
        b = heisenberg_neighborhood_volume(2.0**-5, 400_000, seed=4)
        assert a.value / b.value == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_delta_must_be_positive(self, delta):
        with pytest.raises(HeisenbergError, match="delta must be positive"):
            heisenberg_neighborhood_volume(delta, 20_000)

    def test_sample_floor(self):
        with pytest.raises(HeisenbergError):
            heisenberg_neighborhood_volume(0.25, 5000)

    def test_pinned_seeded_value(self):
        # two sample chunks; the values were recorded before the Monte
        # Carlo chunk driver moved into kakeyalab.rng
        est = heisenberg_neighborhood_volume(1 / 8, 300_000, seed=5)
        assert est.value == 110.35257895625426
        assert est.std_error == 0.8302733574549362
        assert est.samples == 300_000

    def test_determinism_and_thread_invariance(self, monkeypatch):
        a = heisenberg_neighborhood_volume(0.125, 600_000, seed=9)
        monkeypatch.setenv("KAKEYA_LAB_THREADS", "4")
        b = heisenberg_neighborhood_volume(0.125, 600_000, seed=9)
        assert a == b


class TestExhibit:
    def test_neighborhood_over_delta_stable(self):
        vals = [
            heisenberg_neighborhood_volume(2.0**-k, 400_000, seed=k).value / 2.0**-k
            for k in range(4, 8)
        ]
        assert max(vals) / min(vals) <= 4.0

    def test_failure_ratio_grows(self):
        ratios = []
        for k in range(4, 8):
            d = 2.0**-k
            est = heisenberg_neighborhood_volume(d, 400_000, seed=k)
            ratios.append(lattice_count(d) * complex_tube_volume(d) / est.value)
        for a, b in zip(ratios, ratios[1:]):
            assert b / a >= 1.7

    def test_tube_points_wear_calibrated_defect(self):
        # 6-ball perturbations of surface segments stay within the
        # calibrated defect band; containment drives the exhibit's
        # upper bound on the union volume.
        delta = 1 / 8
        inv = 8
        rng = np.random.default_rng(17)
        params = []
        while len(params) < 48:
            a, b, wr, wi = (int(v) for v in rng.integers(-inv, inv + 1, size=4))
            if wr * wr + wi * wi <= inv * inv:
                params.append(ComplexLineParams(
                    a * delta, b * delta, complex(wr * delta, wi * delta)))
        inside = 0
        total = 0
        for p in params:
            for q in surface_segment_points(p, 32):
                g = rng.standard_normal(6)
                g *= delta * rng.uniform() ** (1 / 6) / np.linalg.norm(g)
                shifted = CPoint3(
                    q.re1 + g[0], q.im1 + g[1], q.re2 + g[2],
                    q.im2 + g[3], q.re3 + g[4], q.im3 + g[5],
                )
                inside += membership_defect(shifted) <= MEMBERSHIP_CALIBRATION * delta
                total += 1
        assert inside / total >= 0.99


def real_form_draws(stream_rng, size):
    """r and phi as the sampler draws them."""
    r = 2.0 * np.sqrt(stream_rng.random((size, 3)))
    return r, stream_rng.random((size, 3)) * (2.0 * math.pi)


class TestRealForm:
    """The real-form sampler against the complex-form oracle."""

    @pytest.mark.parametrize("delta", [2.0**-k for k in range(2, 10)] + [4.0, 6.0])
    def test_estimates_equal_oracle(self, delta, monkeypatch):
        for seed, samples in ((0, 300_000), (13, 300_000), (4, 600_001)):
            want = heisenberg_oracle.heisenberg_neighborhood_volume(delta, samples, seed)
            for threads in ("1", "4"):
                monkeypatch.setenv("KAKEYA_LAB_THREADS", threads)
                got = heisenberg_neighborhood_volume(delta, samples, seed)
                assert (got.value, got.std_error) == (want.value, want.std_error)

    def test_forms_agree_far_inside_the_band(self):
        # 2^20 samples, four chunks of the seed-11 streams; both sides
        # read the same draws, so a differing draw shows as a wide gap
        gap = 0.0
        for stream in range(4):
            r, phi = real_form_draws(make_rng(11, stream), 1 << 18)
            exact = heisenberg_oracle.sample_defects(make_rng(11, stream), 1 << 18)
            gap = max(gap, float(np.max(np.abs(_real_defect(r, phi) - exact))))
        assert 0.0 < gap <= 2**-30 / 1e4


class TestSampleAdmission:
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached before the sample guard")

    def test_over_limit_refused_before_drawing(self, monkeypatch):
        admit_samples(MAX_MC_SAMPLES)  # at the limit
        monkeypatch.setattr(heisenberg, "np", self.NoNumpy())
        monkeypatch.setattr(rng_module, "np", self.NoNumpy())
        with pytest.raises(ValueError, match=r"1,073,741,825 Monte Carlo samples are "
                                             r"over the limit of 1,073,741,824"):
            heisenberg_neighborhood_volume(2.0**-7, MAX_MC_SAMPLES + 1)

    def test_cli_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(heisenberg, "np", self.NoNumpy())
        monkeypatch.setattr(rng_module, "np", self.NoNumpy())
        out = tmp_path / "heis.csv"
        argv = ["heisenberg", "--delta", repr(2.0**-7),
                "--samples", str(2**31), "--out", str(out)]
        assert dispatch(argv) == 2
        assert "over the limit of 1,073,741,824" in capsys.readouterr().err
        assert not out.exists()
