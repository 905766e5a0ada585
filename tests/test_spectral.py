"""Grid transform, multiplier, and wave packet tests.

The transform oracle is a direct quadrature matrix, sharing no code
with the FFT path.  Partial integrals are cross-checked between their
two computation routes and against the same direct oracle.
"""

import math

import numpy as np
import pytest

from kakeyalab.spectral import (
    FreqRect,
    GridField,
    MultiplierSpec,
    SpectralError,
    WavePacket,
    apply_multiplier,
    dft_forward,
    dft_inverse,
    freq_coords,
    lp_norm,
    multiplier_symbol,
    partial_integral_1d,
)
from kakeyalab.spectral.packets import _check_grid, packet_symbol_block


def make_packet(p, N, L):
    """Spatial packet field for p on the N-point, period-L torus."""
    _check_grid(p.theta.r, N, L)
    fhat = np.zeros((N, N), dtype=complex)
    ix, iy, block = packet_symbol_block(p.theta, p.y, N, L)
    fhat[np.ix_(ix, iy)] = block
    return dft_inverse(GridField(2, N, N / L, fhat))


def packet_mass_fraction(field, p, scale=3.0):
    """Fraction of the field's L^2 mass inside the scale-enlarged dual
    rectangle (1/r along the tangent, 1/r^2 along the normal) centred at
    the packet's translation, on the torus."""
    x = np.arange(field.N) * (field.L / field.N)
    dx = np.remainder(x - p.y[0] + field.L / 2, field.L) - field.L / 2
    dy = np.remainder(x - p.y[1] + field.L / 2, field.L) - field.L / 2
    t_hat, n_hat, r = p.theta.tangent, p.theta.normal, p.theta.r
    u = dx[:, None] * t_hat[0] + dy[None, :] * t_hat[1]
    v = dx[:, None] * n_hat[0] + dy[None, :] * n_hat[1]
    inside = (np.abs(u) <= scale / r / 2) & (np.abs(v) <= scale / r ** 2 / 2)
    mass = np.abs(field.data) ** 2
    return float(mass[inside].sum() / mass.sum())


def direct_forward(data: np.ndarray, L: float) -> np.ndarray:
    """Quadrature transform by explicit matrix product, no FFT."""
    N = len(data)
    j = np.arange(N)
    W = np.exp(-2j * np.pi * np.outer(j, j) / N)
    return (L / N) * (W @ data)


def random_field(dim: int, N: int, L: float, seed: int) -> GridField:
    rng = np.random.default_rng(seed)
    shape = (N,) * dim
    return GridField(dim, N, L,
                     rng.normal(size=shape) + 1j * rng.normal(size=shape))


class TestGridField:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(SpectralError):
            GridField(1, 100, 1.0, np.zeros(100, complex))

    def test_rejects_small_n(self):
        with pytest.raises(SpectralError):
            GridField(1, 4, 1.0, np.zeros(4, complex))

    def test_rejects_bad_dim(self):
        with pytest.raises(SpectralError):
            GridField(3, 8, 1.0, np.zeros((8, 8, 8), complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SpectralError):
            GridField(2, 8, 1.0, np.zeros(8, complex))

    def test_rejects_bad_period(self):
        for L in (0.0, -1.0, math.inf):
            with pytest.raises(SpectralError):
                GridField(1, 8, L, np.zeros(8, complex))

    def test_cell_and_nyquist(self):
        # frequencies step by 1/L and fold down to -N/(2L)
        f = GridField(1, 64, 16.0, np.zeros(64, complex))
        assert freq_coords(f)[1] == 1 / 16.0
        assert freq_coords(f).min() == -2.0


class TestTransform:
    def test_delta_becomes_constant(self):
        data = np.zeros(64, complex)
        data[0] = 1.0
        out = dft_forward(GridField(1, 64, 4.0, data))
        assert np.all(out.data == 4.0 / 64)
        assert out.L == 64 / 4.0

    def test_matches_direct_quadrature(self):
        f = random_field(1, 64, 5.0, seed=10)
        got = dft_forward(f).data
        want = direct_forward(f.data, f.L)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_matches_direct_quadrature_2d(self):
        f = random_field(2, 32, 3.0, seed=11)
        N, L = f.N, f.L
        W = np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)
        want = (L / N) ** 2 * (W @ f.data @ W.T)
        got = dft_forward(f).data
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_parseval(self):
        for k in range(10):
            f = random_field(1, 256, 12.0, seed=100 + k)
            assert abs(lp_norm(f, 2) - lp_norm(dft_forward(f), 2)) < 1e-10
        for k in range(5):
            f = random_field(2, 64, 7.0, seed=200 + k)
            assert abs(lp_norm(f, 2) - lp_norm(dft_forward(f), 2)) < 1e-10

    def test_roundtrip_identity(self):
        for dim, N in ((1, 256), (2, 64)):
            f = random_field(dim, N, 9.0, seed=300 + dim)
            back = dft_inverse(dft_forward(f))
            assert back.L == f.L
            scale = np.abs(f.data).max()
            assert np.abs(back.data - f.data).max() < 1e-12 * scale
            fwd = dft_forward(dft_inverse(f))
            assert np.abs(fwd.data - f.data).max() < 1e-12 * scale

    def test_translation_becomes_modulation(self):
        f = random_field(1, 128, 4.0, seed=400)
        shift = 21
        rolled = GridField(1, f.N, f.L, np.roll(f.data, shift))
        lhs = dft_forward(rolled).data
        y = shift * f.L / f.N
        rhs = np.exp(-2j * np.pi * y * freq_coords(f)) * dft_forward(f).data
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_scaled_gaussian_pair(self):
        # f(x) = r exp(-pi r^2 x^2) transforms to exp(-pi xi^2 / r^2);
        # the fixture periodizes the slow spatial tail explicitly.
        r, N, L = 0.25, 512, 16.0
        x = np.arange(N) * (L / N)
        data = sum(r * np.exp(-math.pi * r ** 2 * (x - m * L) ** 2)
                   for m in range(-3, 4))
        out = dft_forward(GridField(1, N, L, data))
        xi = np.fft.fftfreq(N, d=L / N)
        assert np.abs(out.data - np.exp(-math.pi * xi ** 2 / r ** 2)).max() < 1e-6


@pytest.mark.parametrize("dim, N, seed", [(1, 512, 810), (2, 64, 811), (2, 256, 812)])
def test_in_place_paths_equal_plain_numpy_bitwise(dim, N, seed):
    # the transforms scale their one output array in place, lp_norm
    # raises |x| to the power in place: same bits as fresh copies
    f = random_field(dim, N, 8.0, seed)
    x = f.data
    assert (dft_forward(f).data.tobytes()
            == (np.fft.fftn(x) * (8.0 / N) ** dim).tobytes())
    assert (dft_inverse(f).data.tobytes()
            == (np.fft.ifftn(x) * 8.0 ** dim).tobytes())
    w = (8.0 / N) ** dim
    for p in (1.0, 2.0, 3.0, 4.0, 2.5, 6.0):
        assert lp_norm(f, p) == float((np.abs(x) ** p).sum() * w) ** (1.0 / p)
    spec = MultiplierSpec.bochner_riesz(2.5, 0.5)
    sym = multiplier_symbol(spec, [freq_coords(f)] * dim)
    want = np.fft.ifftn(np.fft.fftn(x) * (8.0 / N) ** dim * sym) * (N / 8.0) ** dim
    assert apply_multiplier(f, spec).data.tobytes() == want.tobytes()


class TestLpNorm:
    def test_half_indicator(self):
        data = np.zeros((64, 64), complex)
        data[:32, :] = 1.0
        f = GridField(2, 64, 3.0, data)
        assert abs(lp_norm(f, 1) - 3.0 ** 2 / 2) < 1e-12

    def test_homogeneity(self):
        f = random_field(1, 64, 2.0, seed=500)
        g = GridField(1, 64, 2.0, -2.5 * f.data)
        for p in (1.0, 2.0, 4.0):
            assert abs(lp_norm(g, p) - 2.5 * lp_norm(f, p)) < 1e-12

    def test_hoelder_interpolation(self):
        for k in range(5):
            f = random_field(2, 32, 1.5, seed=600 + k)
            bound = math.sqrt(lp_norm(f, 1) * lp_norm(f, math.inf))
            assert lp_norm(f, 2) <= bound * (1 + 1e-12)

    def test_sup_norm(self):
        f = random_field(1, 64, 2.0, seed=700)
        assert lp_norm(f, math.inf) == np.abs(f.data).max()

    def test_rejects_small_p(self):
        f = random_field(1, 64, 2.0, seed=701)
        with pytest.raises(SpectralError):
            lp_norm(f, 0.5)


class TestMultipliers:
    def test_validation(self):
        with pytest.raises(SpectralError):
            MultiplierSpec("cone", 1.0)
        with pytest.raises(SpectralError):
            MultiplierSpec.ball(0.0)
        with pytest.raises(SpectralError):
            MultiplierSpec.bochner_riesz(1.0, -0.5)

    def test_riesz_zero_equals_ball_bitwise(self):
        f = random_field(2, 64, 8.0, seed=800)
        a = apply_multiplier(f, MultiplierSpec.ball(2.3))
        b = apply_multiplier(f, MultiplierSpec.bochner_riesz(2.3, 0.0))
        assert a.data.tobytes() == b.data.tobytes()

    def test_sharp_cutoff_idempotent(self):
        f = random_field(2, 64, 8.0, seed=801)
        once = apply_multiplier(f, MultiplierSpec.ball(1.7))
        twice = apply_multiplier(once, MultiplierSpec.ball(1.7))
        assert np.abs(twice.data - once.data).max() < 1e-12 * np.abs(f.data).max()

    def test_square_is_tensor_product(self):
        rng = np.random.default_rng(802)
        N, L, R = 128, 8.0, 3.3
        gx = rng.normal(size=N) + 1j * rng.normal(size=N)
        hy = rng.normal(size=N) + 1j * rng.normal(size=N)
        f = GridField(2, N, L, np.outer(gx, hy))
        got = apply_multiplier(f, MultiplierSpec.square(R)).data
        sx = partial_integral_1d(GridField(1, N, L, gx), R, "truncation").data
        sy = partial_integral_1d(GridField(1, N, L, hy), R, "truncation").data
        want = np.outer(sx, sy)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_riesz_damping_monotone_in_alpha(self):
        f = random_field(2, 64, 8.0, seed=803)
        norms = [lp_norm(apply_multiplier(f, MultiplierSpec.bochner_riesz(2.0, a)), 2)
                 for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))

    def test_boundary_bin_is_kept(self):
        # frequencies 16/8 = 2.0 land exactly on R: the closed cutoff keeps them
        xi = np.fft.fftfreq(128, d=8.0 / 128)
        sym = multiplier_symbol(MultiplierSpec.ball(2.0), [xi])
        assert sym[16] == 1.0 and sym[128 - 16] == 1.0
        assert sym[17] == 0.0


class TestPartialIntegral1d:
    def test_beyond_nyquist_is_identity(self):
        f = random_field(1, 256, 8.0, seed=900)
        for method in ("truncation", "dirichlet"):
            out = partial_integral_1d(f, f.N / (2 * f.L), method)
            assert np.abs(out.data - f.data).max() < 1e-12 * np.abs(f.data).max()
            out = partial_integral_1d(f, 100.0, method)
            assert np.abs(out.data - f.data).max() < 1e-12 * np.abs(f.data).max()

    def test_methods_agree(self):
        f = random_field(1, 1024, 8.0, seed=901)
        t = partial_integral_1d(f, 10.37, "truncation")
        d = partial_integral_1d(f, 10.37, "dirichlet")
        assert np.abs(t.data - d.data).max() < 1e-8

    def test_matches_direct_mask(self):
        f = random_field(1, 256, 8.0, seed=902)
        R = 5.21
        fhat = direct_forward(f.data, f.L)
        xi = np.fft.fftfreq(f.N, d=f.L / f.N)
        fhat[np.abs(xi) > R] = 0.0
        j = np.arange(f.N)
        W = np.exp(2j * np.pi * np.outer(j, j) / f.N)
        want = (W @ fhat) / f.L
        got = partial_integral_1d(f, R, "truncation").data
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()

    def test_indicator_error_decreases(self):
        N, L = 512, 8.0
        x = np.arange(N) * (L / N)
        wrapped = np.minimum(x, L - x)
        f = GridField(1, N, L, (wrapped <= 1.0).astype(complex))
        errs = []
        for R in (2.0, 4.0, 8.0, 16.0):
            out = partial_integral_1d(f, R, "truncation")
            diff = GridField(1, N, L, out.data - f.data)
            errs.append(lp_norm(diff, 2))
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_rejects_bad_inputs(self):
        f2 = random_field(2, 64, 8.0, seed=903)
        with pytest.raises(SpectralError):
            partial_integral_1d(f2, 1.0, "truncation")
        f1 = random_field(1, 64, 8.0, seed=904)
        with pytest.raises(SpectralError):
            partial_integral_1d(f1, 1.0, "simpson")
        with pytest.raises(SpectralError):
            partial_integral_1d(f1, -2.0, "truncation")


class TestPackets:
    def test_rect_validation(self):
        with pytest.raises(SpectralError):
            FreqRect(0.0, 1.0)
        with pytest.raises(SpectralError):
            FreqRect(0.0, 0.0)
        with pytest.raises(SpectralError):
            FreqRect(math.nan, 0.5)

    def test_packet_validation(self):
        theta = FreqRect(0.3, 0.25)
        with pytest.raises(SpectralError):
            WavePacket(theta, np.array([1.0]))
        with pytest.raises(SpectralError):
            WavePacket(theta, np.array([math.inf, 0.0]))
        p = WavePacket(theta, np.array([1.0, 2.0]))
        assert p.y.tolist() == [1.0, 2.0]

    def test_underresolved_grid_names_required_samples(self):
        p = WavePacket(FreqRect(0.4, 1 / 8), np.zeros(2))
        with pytest.raises(SpectralError, match="L >= 4/r"):
            make_packet(p, 1024, 100.0)
        with pytest.raises(SpectralError, match="1024"):
            make_packet(p, 512, 256.0)

    def test_zero_translation_peaks_at_origin(self):
        r = 1 / 8
        p = WavePacket(FreqRect(math.pi / 2, r), np.zeros(2))
        field = make_packet(p, 1024, 256.0)
        peak = np.unravel_index(np.argmax(np.abs(field.data)), (1024, 1024))
        assert peak == (0, 0)

    def test_translation_is_circular_shift(self):
        r, N, L = 1 / 8, 1024, 256.0
        cell = L / N
        base = make_packet(WavePacket(FreqRect(1.1, r), np.zeros(2)), N, L).data
        moved = make_packet(
            WavePacket(FreqRect(1.1, r), np.array([37 * cell, 911 * cell])),
            N, L).data
        want = np.roll(base, (37, 911), axis=(0, 1))
        assert np.abs(moved - want).max() < 1e-12 * np.abs(base).max()

    def test_mass_concentrates_on_dual_rectangle(self):
        r = 1 / 16
        N, L = 4096, 4.0 / r ** 2
        p = WavePacket(FreqRect(0.3, r), np.array([0.25 * L, 0.7 * L]))
        field = make_packet(p, N, L)
        assert packet_mass_fraction(field, p, scale=3.0) >= 0.9

    def test_separated_packets_near_orthogonal(self):
        r = 1 / 16
        N, L = 4096, 4.0 / r ** 2
        y = np.array([L / 2, L / 2])
        f1 = make_packet(WavePacket(FreqRect(0.7, r), y), N, L)
        f2 = make_packet(WavePacket(FreqRect(0.7 + 8 * r, r), y), N, L)
        inner = abs((f1.data.conj() * f2.data).sum()) * (L / N) ** 2
        assert inner <= 0.01 * lp_norm(f1, 2) * lp_norm(f2, 2)
