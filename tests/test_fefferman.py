"""Ball-multiplier counterexample experiment tests.

The p = 2 run has a sharp cross-check: packet symbols are close to
orthogonal (flat rectangles on a curved arc overlap only in tapered
corner bins), so the squared ratio must match the power-weighted mean
of the per-packet kept fractions up to that small interference.
"""

import math

import numpy as np
import pytest

from kakeyalab.cli import dispatch
from kakeyalab.perron import PerronSpec, build_perron_tree
from kakeyalab.spectral import (
    FreqRect,
    SpectralError,
    fefferman,
    fefferman_experiment,
    minimal_grid,
    plan_placements,
    single_packet_ratio,
)
from kakeyalab.spectral.packets import packet_symbol_block


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
        # each packet's symbol power, and the part of it inside the unit disc
        freqs = np.fft.fftfreq(rep.N, d=rep.L / rep.N)
        total = kept = 0.0
        for packet, _ in plan_placements(tree, 1 / 8, rep.L):
            ix, iy, block = packet_symbol_block(packet.theta, packet.y, rep.N, rep.L)
            power = np.abs(block) ** 2
            total += power.sum()
            kept += power[freqs[ix][:, None] ** 2 + freqs[iy][None, :] ** 2 <= 1.0].sum()
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
        assert rep.n_packets == int((math.pi / 3) / (1 / 8))
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


def dense_norm_and_filtered(fhat, N, L, p):
    """The dense path the block path replaced: the whole N x N symbol
    array, transformed and filtered with fresh copies at every step."""
    scale = float(N / L) ** 2
    w = ((N / (N / L)) / N) ** 2
    field = np.fft.ifftn(fhat) * scale
    in_norm = float((np.abs(field) ** p).sum() * w) ** (1.0 / p)
    freqs = np.fft.fftfreq(N, d=L / N)
    fhat = fhat * ((freqs[:, None] ** 2 + freqs[None, :] ** 2) <= 1.0).astype(float)
    field = np.fft.ifftn(fhat) * scale
    out_norm = float((np.abs(field) ** p).sum() * w) ** (1.0 / p)
    heat = np.abs(field).reshape(128, N // 128, 128, N // 128).mean(axis=(1, 3))
    return in_norm, out_norm, heat


class TestBlockPath:
    """The packet-block spectrum against the dense one, bit for bit."""

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_experiment_equals_dense(self, tree, p):
        r = 1 / 8
        N, L = minimal_grid(r)
        fhat = np.zeros((N, N), dtype=complex)
        for packet, _ in plan_placements(tree, r, L):
            ix, iy, block = packet_symbol_block(packet.theta, packet.y, N, L)
            fhat[np.ix_(ix, iy)] += block
        want = dense_norm_and_filtered(fhat, N, L, p)
        rep = fefferman_experiment(tree, r, p)
        assert rep.input_norm == want[0]
        assert rep.output_norm == want[1]
        assert np.array_equal(rep.heatmap, want[2])

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_single_packet_equals_dense(self, p):
        r = 1 / 8
        N, L = minimal_grid(r)
        fhat = np.zeros((N, N), dtype=complex)
        ix, iy, block = packet_symbol_block(
            FreqRect(math.pi / 2, r), np.array([L / 2, L / 2]), N, L)
        fhat[np.ix_(ix, iy)] = block
        in_norm, out_norm, _ = dense_norm_and_filtered(fhat, N, L, p)
        assert single_packet_ratio(r, p) == out_norm / in_norm


class TestMemoryGuard:
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} reached before the memory guard")

    def test_refuses_before_allocating(self, tree, monkeypatch):
        # r = 1/64 asks for N = 65536: 64 GiB per complex array
        monkeypatch.setattr(fefferman, "np", self.NoNumpy())
        with pytest.raises(SpectralError, match=r"N = 65536 needs 64 GiB"):
            fefferman_experiment(tree, 1 / 64, 4.0)
        with pytest.raises(SpectralError, match=r"N = 65536 needs 64 GiB"):
            single_packet_ratio(1 / 64, 4.0)
        with pytest.raises(SpectralError, match=r"N = 32768 needs 16 GiB"):
            fefferman_experiment(tree, 1 / 8, 4.0, N=32768, L=256.0)

    def test_cli_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fefferman, "np", self.NoNumpy())
        out = tmp_path / "feff.csv"
        assert dispatch(["fefferman", "--r", repr(1 / 64), "--out", str(out)]) == 2
        assert "64 GiB" in capsys.readouterr().err
        assert not out.exists()
