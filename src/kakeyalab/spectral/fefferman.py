"""Low-pass pile-up experiment: packets hung below a tree base.

Frequency rectangles of width r cover directions at spacing r; each
packet's dual tube (1/r wide, 1/r^2 long) hangs below the base of the
tree region, scaled so the tree is 1/r^2 tall, pointing along its
tracked direction.  The unit low-pass filter halves every rectangle
radially, which doubles each tube along its length, and the doubles
pile up inside the tree region.  The report compares L^p norms of the
packet sum before and after filtering.

One tree covers the 60 degree sector of directions around the vertical,
which is all the pile-up needs, so every packet lies in that sector.
A run holds the spectrum's covered rows and one real N x N |f| array
(62 and 128 MiB at r = 1/16, N = 4096, where a run peaks at about
228 MiB); N beyond 16384 is refused before allocating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..parallel import map_ordered
from ..perron import PerronTree, covering_segment
from .grid import SpectralError
from .multipliers import MultiplierSpec, multiplier_symbol
from .packets import (FreqRect, WavePacket, _check_grid, packet_symbol_block,
                      required_samples)

__all__ = [
    "FeffermanReport",
    "minimal_grid",
    "plan_placements",
    "fefferman_experiment",
    "single_packet_ratio",
]

_SECTOR = math.pi / 3
_HEATMAP_BINS = 128
# Columns per axis-0 strip: each strip buffer is 1 MiB at N = 4096.
# 64-column buffers (4 MiB) ran about 0.1 s faster at r = 1/16 but
# raised a whole analysis run's peak RSS by about 3.4 MiB.
_STRIP = 16
# Limit on one N x N complex array, as the guard's message states; a run
# allocates none.  It admits N = 16384 (r = 1/32 on the minimal grid),
# where |f| takes 2 GiB and the spectrum's 4,044 covered rows about 1 GiB.
_ARRAY_BYTES = 1 << 32


@dataclass(frozen=True, eq=False)
class FeffermanReport:
    """Norm comparison for one (r, p) run on the N x N grid of period L,
    with a coarse |Sf| occupancy map for rendering."""

    r: float
    p: float
    N: int
    L: float
    n_packets: int
    input_norm: float
    output_norm: float
    heatmap: np.ndarray

    @property
    def ratio(self) -> float:
        return self.output_norm / self.input_norm


def minimal_grid(r: float) -> tuple[int, float]:
    """Smallest canonical grid for scale r: period 4/r^2 (the tube plus
    clearance), N the next power of two whose Nyquist clears the circle."""
    L = 4.0 / r ** 2
    return required_samples(r, L), L


def _check_memory(N: int) -> None:
    if 16 * N * N > _ARRAY_BYTES:
        raise SpectralError(f"N = {N} needs {16 * N * N / 2 ** 30:g} GiB per N x N complex "
                            f"array, over the {_ARRAY_BYTES / 2 ** 30:g} GiB limit")


def plan_placements(tree: PerronTree, r: float, L: float):
    """Packets for every sector direction: list of (WavePacket, leaf).

    The tree base line is embedded at height 0.6 L, centred at L/2, and
    scaled by 1/r^2.  Each tube centre sits half a tube length below its
    tracked base point, so the double reaches into the tree.
    """
    lam = 1.0 / r ** 2
    origin = np.array([L / 2.0, 0.6 * L])
    out = []
    for i in range(int(_SECTOR / r)):
        phi = _SECTOR + (i + 0.5) * r
        seg, leaf = covering_segment(tree, Fraction(-math.cos(phi) / math.sin(phi)))
        base = np.array([float(seg.q.x), float(seg.q.y)])
        n_hat = np.array([math.cos(phi), math.sin(phi)])
        center = origin + lam * base - (lam / 2.0) * n_hat
        out.append((WavePacket(FreqRect(phi, r), center), leaf))
    return out


def _norm_and_filtered(blocks, N: int, L: float, p: float):
    """Input norm, then the filtered field's norm and occupancy map.

    Each transform rebuilds the covered rows of the spectrum from the
    packet blocks and runs ifftn's two passes in its order on them: the
    last axis on those rows, then axis 0 in strips of _STRIP columns,
    each scaled while complex and its |f| written into one real N x N
    array.  Every 1-D transform is the one ifftn computes, so every |f|
    sample is the dense path's bit for bit; the skipped rows would only
    have given zeros their sign.
    """
    freqs = np.fft.fftfreq(N, d=L / N)
    rows = np.unique(np.concatenate([ix for ix, _, _ in blocks]))
    cols = np.unique(np.concatenate([iy for _, iy, _ in blocks]))
    sym = multiplier_symbol(MultiplierSpec.ball(1.0), [freqs[rows], freqs[cols]])
    spec = np.empty((len(rows), N), dtype=complex)
    strip, out = np.zeros((_STRIP, N), dtype=complex), np.empty((_STRIP, N), dtype=complex)
    mag, norms = np.empty((N, N)), []
    scale, w = float(N / L) ** 2, (N / (N / L) / N) ** 2
    bins = min(_HEATMAP_BINS, N)
    for filtered in (False, True):
        spec[...] = 0
        for ix, iy, block in blocks:
            spec[np.ix_(np.searchsorted(rows, ix), iy)] += block
        if filtered:
            spec[:, cols] *= sym
        np.fft.ifft(spec, axis=1, out=spec)
        for j in range(0, N, _STRIP):  # N is a power of two >= 16
            strip[:, rows] = spec[:, j:j + _STRIP].T
            np.fft.ifft(strip, axis=1, out=out)
            mag[:, j:j + _STRIP] = np.abs(np.multiply(out, scale, out=out)).T
        if filtered:
            heat = mag.reshape(bins, N // bins, bins, N // bins).mean(axis=(1, 3))
        norms.append(float(mag.max()) if p == math.inf
                     else float(np.power(mag, p, out=mag).sum() * w) ** (1.0 / p))
    return norms[0], norms[1], heat


def fefferman_experiment(tree: PerronTree, r: float, p: float,
                         N: int | None = None, L: float | None = None) -> FeffermanReport:
    """Build the packet sum for the tree's directions at scale r and
    measure the L^p norm ratio across the unit low-pass filter.

    L defaults to the minimal period 4/r^2, then N to the smallest valid
    grid for that L; a value given is kept.
    """
    if not p >= 1:
        raise SpectralError(f"p must be >= 1, got {p}")
    if L is None:
        _, L = minimal_grid(r)
    if N is None:
        N = required_samples(r, L)
    _check_memory(N)
    _check_grid(r, N, L)
    placements = plan_placements(tree, r, L)
    blocks = map_ordered(lambda job: packet_symbol_block(job[0].theta, job[0].y, N, L),
                         placements)
    in_norm, out_norm, heat = _norm_and_filtered(blocks, N, L, p)
    return FeffermanReport(r, p, N, L, len(placements), in_norm, out_norm, heat)


def single_packet_ratio(r: float, p: float) -> float:
    """Norm ratio for one packet alone, on the minimal grid: the
    no-pile-up control."""
    if not p >= 1:
        raise SpectralError(f"p must be >= 1, got {p}")
    N, L = minimal_grid(r)
    _check_memory(N)
    block = packet_symbol_block(FreqRect(math.pi / 2, r), np.array([L / 2, L / 2]), N, L)
    in_norm, out_norm, _ = _norm_and_filtered([block], N, L, p)
    return out_norm / in_norm
