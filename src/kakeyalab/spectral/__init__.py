"""Discrete Fourier engine on periodic grids.

Unitary transforms between a period-L spatial torus and its frequency
lattice, sharp and smoothed frequency cutoffs, one dimensional partial
integrals, frequency-localized wave packets, and the low-pass pile-up
experiment that drives packets onto a tree region.
"""

from .fefferman import (
    FeffermanReport,
    fefferman_experiment,
    minimal_grid,
    plan_placements,
    single_packet_ratio,
)
from .grid import (
    GridField,
    SpectralError,
    dft_forward,
    dft_inverse,
    freq_coords,
    lp_norm,
)
from .multipliers import (
    MultiplierSpec,
    apply_multiplier,
    multiplier_symbol,
    partial_integral_1d,
)
from .packets import (
    FreqRect,
    WavePacket,
    required_samples,
)

__all__ = [
    "GridField",
    "SpectralError",
    "dft_forward",
    "dft_inverse",
    "freq_coords",
    "lp_norm",
    "MultiplierSpec",
    "multiplier_symbol",
    "apply_multiplier",
    "partial_integral_1d",
    "FreqRect",
    "WavePacket",
    "required_samples",
    "FeffermanReport",
    "fefferman_experiment",
    "minimal_grid",
    "plan_placements",
    "single_packet_ratio",
]
