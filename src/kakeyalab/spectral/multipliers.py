"""Frequency multipliers: sharp cutoffs, Bochner-Riesz damping, partial integrals.

A multiplier acts by pointwise scaling the transform on the discrete
frequency lattice and transforming back.  Sharp cutoffs keep the closed
set |xi| <= R, so any R at or beyond the Nyquist frequency passes every
representable bin and the operator is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridField, SpectralError, dft_forward, dft_inverse, freq_coords

__all__ = [
    "MultiplierSpec",
    "multiplier_symbol",
    "apply_multiplier",
    "partial_integral_1d",
]

_KINDS = ("ball", "square", "bochner-riesz")


@dataclass(frozen=True)
class MultiplierSpec:
    """A named frequency symbol: sharp ball or square cutoff at radius R,
    or Bochner-Riesz means (1 - |xi|^2/R^2)^alpha on the ball."""

    kind: str
    R: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SpectralError(f"unknown multiplier kind {self.kind!r}")
        if not (math.isfinite(self.R) and self.R > 0):
            raise SpectralError(f"R must be positive, got {self.R}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise SpectralError(f"alpha must be >= 0, got {self.alpha}")

    @classmethod
    def ball(cls, R: float) -> "MultiplierSpec":
        return cls("ball", R)

    @classmethod
    def square(cls, R: float) -> "MultiplierSpec":
        return cls("square", R)

    @classmethod
    def bochner_riesz(cls, R: float, alpha: float) -> "MultiplierSpec":
        return cls("bochner-riesz", R, alpha)


def multiplier_symbol(spec: MultiplierSpec, axes: list[np.ndarray]) -> np.ndarray:
    """Symbol values on the lattice spanned by the per-axis frequencies.

    The Bochner-Riesz factor is computed as t**alpha with t clipped at 0,
    so alpha = 0 reproduces the ball indicator bit for bit.
    """
    if spec.kind == "square":
        sym = (np.abs(axes[0]) <= spec.R).astype(float)
        for ax in axes[1:]:
            sym = np.multiply.outer(sym, (np.abs(ax) <= spec.R).astype(float))
        return sym
    q = np.square(axes[0] / spec.R)
    for ax in axes[1:]:
        q = np.add.outer(q, np.square(ax / spec.R))
    inside = q <= 1.0
    if spec.kind == "ball":
        return inside.astype(float)
    t = np.where(inside, 1.0 - q, 0.0)
    return np.where(inside, t ** spec.alpha, 0.0)


def apply_multiplier(f: GridField, spec: MultiplierSpec) -> GridField:
    """Scale the transform of f by the symbol and transform back."""
    fhat = dft_forward(f)
    np.multiply(fhat.data, multiplier_symbol(spec, [freq_coords(f)] * f.dim), out=fhat.data)
    return dft_inverse(fhat)


def _dirichlet_kernel(N: int, L: float, n_modes: int) -> np.ndarray:
    """Period-L Dirichlet kernel with modes -K..K, sampled on the grid.

    This is the exact periodization of sin(2*pi*R*x)/(pi*x) for a cutoff
    holding K = n_modes lattice frequencies on each side: a trigonometric
    polynomial with closed form sin((2K+1)*pi*x/L) / (L*sin(pi*x/L)).
    """
    j = np.arange(N)
    x = j * (math.pi / N)
    num = np.sin((2 * n_modes + 1) * x)
    den = L * np.sin(x)
    out = np.empty(N)
    out[0] = (2 * n_modes + 1) / L
    out[1:] = num[1:] / den[1:]
    return out


def partial_integral_1d(f: GridField, R: float, method: str) -> GridField:
    """Reconstruction from frequencies |xi| <= R, by either route.

    "truncation" zeroes the outside bins on the transform side.
    "dirichlet" circularly convolves with the periodized sampled kernel;
    when every bin is kept the periodization collapses to the discrete
    delta and both routes are the exact identity.
    """
    if f.dim != 1:
        raise SpectralError("partial integrals are one dimensional")
    if not (math.isfinite(R) and R > 0):
        raise SpectralError(f"R must be positive, got {R}")
    if method == "truncation":
        return apply_multiplier(f, MultiplierSpec.ball(R))
    if method != "dirichlet":
        raise SpectralError(f"unknown method {method!r}")
    kept = int((np.abs(freq_coords(f)) <= R).sum())
    if kept == f.N:
        kernel = np.zeros(f.N)
        kernel[0] = f.N / f.L
    else:
        kernel = _dirichlet_kernel(f.N, f.L, (kept - 1) // 2)
    conv = np.fft.ifft(np.fft.fft(f.data) * np.fft.fft(kernel))
    return GridField(1, f.N, f.L, conv * (f.L / f.N))
