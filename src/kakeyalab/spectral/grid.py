"""Periodic grid fields and the unitary discrete transform.

A field holds complex samples of a function on the torus of period L,
taken at the points (j/N)*L per axis.  Its transform lives on the same
kind of grid: N samples of period N/L, so sample k sits at frequency
k/L, which the periodic identification folds into [-N/(2L), N/(2L)).
With the Riemann cell weights L/N in space and 1/L in frequency the
transform pair is exactly unitary, so Parseval holds to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridField",
    "SpectralError",
    "dft_forward",
    "dft_inverse",
    "freq_coords",
    "lp_norm",
]


class SpectralError(ValueError):
    """Raised for invalid grids, multipliers, or packet parameters."""


def check_samples(n: int) -> None:
    """Samples per axis must be a power of two, at least 8."""
    if n < 8 or n & (n - 1):
        raise SpectralError(f"N must be a power of two >= 8, got {n}")


@dataclass(frozen=True, eq=False)
class GridField:
    """Complex samples on a periodic grid: N per axis, period L."""

    dim: int
    N: int
    L: float
    data: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise SpectralError(f"dim must be 1 or 2, got {self.dim}")
        check_samples(self.N)
        if not (math.isfinite(self.L) and self.L > 0):
            raise SpectralError(f"period must be positive, got {self.L}")
        d = np.asarray(self.data, dtype=complex)
        want = (self.N,) * self.dim
        if d.shape != want:
            raise SpectralError(f"data shape {d.shape}, expected {want}")
        object.__setattr__(self, "data", d)


def freq_coords(f: GridField) -> np.ndarray:
    """Signed frequencies k/L along one axis, in transform sample order."""
    return np.fft.fftfreq(f.N, d=f.L / f.N)


def dft_forward(f: GridField) -> GridField:
    """Unitary transform of f; the result's period is the frequency extent N/L."""
    data = np.fft.fftn(f.data, out=np.empty_like(f.data))
    return GridField(f.dim, f.N, f.N / f.L, np.multiply(data, (f.L / f.N) ** f.dim, out=data))


def dft_inverse(f: GridField) -> GridField:
    """Inverse of dft_forward; maps a frequency field back to period N/L."""
    data = np.fft.ifftn(f.data, out=np.empty_like(f.data))
    return GridField(f.dim, f.N, f.N / f.L, np.multiply(data, float(f.L) ** f.dim, out=data))


def lp_norm(f: GridField, p: float) -> float:
    """Riemann-sum L^p norm with cell weight (L/N)^dim; p = inf takes the sup."""
    if p == math.inf:
        return float(np.abs(f.data).max())
    if not p >= 1:
        raise SpectralError(f"p must be >= 1, got {p}")
    w = (f.L / f.N) ** f.dim
    mag = np.abs(f.data)
    return float(np.power(mag, p, out=mag).sum() * w) ** (1.0 / p)
