"""Wave packets: tapered bumps on frequency rectangles at the unit circle.

A frequency rectangle of tangential width r and radial width r^2 sits
tangent to the unit circle.  Its packet is the inverse transform of a
separable raised-cosine taper on the rectangle, flat on the middle half
of each side, times the modulation that translates the spatial bump to
y.  The bump concentrates on the dual rectangle: 1/r along the tangent,
1/r^2 along the normal, centred at y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SpectralError, check_samples

__all__ = [
    "FreqRect",
    "WavePacket",
    "packet_symbol_block",
    "required_samples",
]


@dataclass(frozen=True)
class FreqRect:
    """Rectangle tangent to the unit circle at angle phi: tangential
    width r, radial width r^2."""

    angle: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.angle)):
            raise SpectralError("angle must be finite")
        if not (0.0 < self.r < 1.0):
            raise SpectralError(f"r must lie in (0, 1), got {self.r}")

    @property
    def center(self) -> np.ndarray:
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    @property
    def normal(self) -> np.ndarray:
        return self.center

    @property
    def tangent(self) -> np.ndarray:
        return np.array([-math.sin(self.angle), math.cos(self.angle)])


@dataclass(frozen=True, eq=False)
class WavePacket:
    """A frequency rectangle plus the spatial translation of its bump."""

    theta: FreqRect
    y: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.y, dtype=float)
        if v.shape != (2,) or not np.isfinite(v).all():
            raise SpectralError("translation must be a finite 2-vector")
        object.__setattr__(self, "y", v)


def required_samples(r: float, L: float) -> int:
    """Smallest valid N for period L: the Nyquist frequency must clear
    the unit circle with an r margin."""
    n = max(8, int(math.ceil(2.0 * L * (1.0 + r))))
    return 1 << (n - 1).bit_length()


def _check_grid(r: float, N: int, L: float) -> None:
    check_samples(N)
    min_period = 4.0 / r ** 2
    if L < min_period * (1.0 - 1e-12):
        raise SpectralError(
            f"period {L} cannot resolve the radial width {r}^2; "
            f"need L >= 4/r^2 = {min_period:g}")
    if N < 2.0 * L * (1.0 + r):
        raise SpectralError(
            f"N = {N} leaves the rectangle beyond the Nyquist frequency "
            f"at period {L}; need N >= {required_samples(r, L)}")


def _taper(s: np.ndarray) -> np.ndarray:
    """1 on |s| <= 1/4, raised-cosine to 0 at |s| = 1/2, 0 outside."""
    a = np.abs(s)
    roll = np.cos((np.clip(a, 0.25, 0.5) - 0.25) * (2.0 * math.pi)) * 0.5 + 0.5
    return np.where(a < 0.25, 1.0, np.where(a < 0.5, roll, 0.0))


def packet_symbol_block(theta: FreqRect, y: np.ndarray, N: int, L: float):
    """Tapered, modulated symbol on the lattice rows meeting the rectangle.

    Returns (ix, iy, block): the axis index arrays and the dense complex
    block to add at their cartesian product.
    """
    freqs = np.fft.fftfreq(N, d=L / N)
    c = theta.center
    t_hat = theta.tangent
    n_hat = theta.normal
    half = np.abs(t_hat) * (theta.r / 2) + np.abs(n_hat) * (theta.r ** 2 / 2)
    pad = 1.0 / L
    ix = np.nonzero(np.abs(freqs - c[0]) <= half[0] + pad)[0]
    iy = np.nonzero(np.abs(freqs - c[1]) <= half[1] + pad)[0]
    fx = freqs[ix][:, None] - c[0]
    fy = freqs[iy][None, :] - c[1]
    u = (fx * t_hat[0] + fy * t_hat[1]) / theta.r
    v = (fx * n_hat[0] + fy * n_hat[1]) / theta.r ** 2
    sym = _taper(u) * _taper(v)
    phase = np.exp((freqs[ix][:, None] * y[0] + freqs[iy][None, :] * y[1])
                   * (-2j * math.pi))
    return ix, iy, sym * phase
