"""Ball-multiplier counterexample experiment tests.

The p = 2 run has a sharp cross-check: packet symbols are close to
orthogonal (flat rectangles on a curved arc overlap only in tapered
corner bins), so the squared ratio must match the power-weighted mean
of the per-packet kept fractions up to that small interference.
"""

import math

import numpy as np
import pytest

from kakeyalab.perron import PerronSpec, build_perron_tree
from kakeyalab.spectral import (
    SpectralError,
    fefferman,
    fefferman_experiment,
    minimal_grid,
    plan_placements,
    single_packet_ratio,
)


@pytest.fixture(scope="module")
def tree():
    return build_perron_tree(PerronSpec.default(6))


class TestGridSelection:
    def test_minimal_grid_values(self):
        assert minimal_grid(1 / 8) == (1024, 256.0)
        assert minimal_grid(1 / 16) == (4096, 1024.0)
        assert minimal_grid(1 / 32) == (16384, 4096.0)

    def test_fixed_small_grid_rejected_for_fine_scales(self, tree):
        with pytest.raises(SpectralError, match="L >= 4/r"):
            fefferman_experiment(tree, 1 / 16, 4.0, N=1024, L=256.0)
        with pytest.raises(SpectralError, match="4096"):
            fefferman_experiment(tree, 1 / 16, 4.0, N=1024, L=1024.0)


class TestExperiment:
    def test_low_pass_contracts_l2(self, tree):
        rep = fefferman_experiment(tree, 1 / 8, 2.0)
        assert rep.ratio <= 1.0 + 1e-9
        total = sum(d.power for d in rep.packets)
        kept = sum(d.power * d.kept_fraction for d in rep.packets)
        assert abs(rep.ratio ** 2 - kept / total) < 5e-3

    def test_pile_up_strengthens_as_scale_shrinks(self, tree):
        ratios = [fefferman_experiment(tree, r, 4.0).ratio
                  for r in (1 / 8, 1 / 12, 1 / 16)]
        assert ratios[0] < ratios[1] < ratios[2]
        assert all(0.5 < q < 0.8 for q in ratios)

    def test_single_packet_control(self):
        for p in (2.0, 4.0, 6.0):
            assert single_packet_ratio(1 / 8, p) <= 2.0

    def test_deterministic(self, tree):
        a = fefferman_experiment(tree, 1 / 8, 4.0)
        b = fefferman_experiment(tree, 1 / 8, 4.0)
        assert a.ratio == b.ratio
        assert np.array_equal(a.heatmap, b.heatmap)

    def test_thread_count_invariant(self, tree, monkeypatch):
        a = fefferman_experiment(tree, 1 / 8, 4.0)
        monkeypatch.setenv("KAKEYA_LAB_THREADS", "4")
        b = fefferman_experiment(tree, 1 / 8, 4.0)
        assert a.ratio == b.ratio
        assert np.array_equal(a.heatmap, b.heatmap)

    def test_rejects_bad_exponent(self, tree):
        with pytest.raises(SpectralError):
            fefferman_experiment(tree, 1 / 8, 0.5)

    def test_report_is_consistent(self, tree):
        rep = fefferman_experiment(tree, 1 / 8, 4.0)
        assert (rep.N, rep.L) == minimal_grid(1 / 8)
        assert rep.n_packets == len(rep.packets) == int((math.pi / 3) / (1 / 8))
        assert rep.input_norm > 0 and rep.output_norm > 0
        assert rep.heatmap.shape == (128, 128)
        assert np.all(rep.heatmap >= 0)


class TestPlacements:
    def test_sector_tubes_sit_below_their_base_line(self, tree):
        r, (N, L) = 1 / 8, minimal_grid(1 / 8)
        placements = plan_placements(tree, r, L)
        assert len(placements) == int((math.pi / 3) / r)
        for packet, leaf in placements:
            assert 0 <= leaf < len(tree.piece_shifts)
            assert packet.y[1] < 0.6 * L
        leaves = [leaf for _, leaf in placements]
        assert leaves == sorted(leaves)

    def test_doubles_pile_up_above_the_base(self, tree):
        rep = fefferman_experiment(tree, 1 / 8, 4.0)
        base_bin = 0.6 * 128
        _, peak_y = np.unravel_index(np.argmax(rep.heatmap), rep.heatmap.shape)
        assert base_bin < peak_y < base_bin + 32

    def test_only_sector_misses_are_retried(self, tree, monkeypatch):
        def broken(tree, t):
            raise TypeError("not a sector miss")

        monkeypatch.setattr(fefferman, "covering_segment", broken)
        with pytest.raises(TypeError, match="not a sector miss"):
            plan_placements(tree, 1 / 8, minimal_grid(1 / 8)[1])
