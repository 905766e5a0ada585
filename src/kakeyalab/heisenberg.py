"""Complex line families on the Heisenberg surface in C^3.

The surface {Im z1 = Im(z2 conj(z3))}, cut to the polydisc
|z_i| <= 2, carries a four-real-parameter family of complex line
segments.  Their delta-tubes keep total volume of constant order
while the union sits inside the delta-neighbourhood of the surface,
whose volume is only ~ delta: over C the strong discretized volume
bound fails outright, and this module measures that failure.
The volume sampler tests the defect in real form, by two real sines.

Segments use the gauge-fixed chart (b + conj(w) z, z, w + a z) with
a, b real, which lies on the surface identically, so the full
parameter lattice is usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import mc_hit_fraction
from .tubelab.core import VolumeEstimate

__all__ = [
    "CPoint3",
    "ComplexLineParams",
    "MEMBERSHIP_CALIBRATION",
    "membership_defect",
    "surface_line_point",
    "surface_segment_points",
    "lattice_count",
    "complex_tube_volume",
    "heisenberg_neighborhood_volume",
]

# Smallest round constant c such that every point of a delta-tube around
# a family segment has defect <= c*delta.  Fixed by the containment
# experiment at delta = 1/8: sampled worst-stretch tubes reach
# defect/delta = 1.79, and the gradient bound sqrt(1 + |z2|^2 + |z3|^2)
# plus the delta/2 curvature term caps the sup at 2.07.
MEMBERSHIP_CALIBRATION = 2.1

# Volume of the sampling domain: three independent discs of radius 2.
_POLYDISC_VOLUME = (4.0 * math.pi) ** 3

_BOUND_TOL = 1e-12

# Largest 1/delta lattice_count takes: its disc count at 2^20 loops
# 2^21 times, about half a second.
_MAX_INVERSE_DELTA = 1 << 20


class HeisenbergError(ValueError):
    """Raised for parameters outside the family's contracts."""


@dataclass(frozen=True)
class CPoint3:
    """Point of C^3 stored as three Re/Im float pairs."""

    re1: float
    im1: float
    re2: float
    im2: float
    re3: float
    im3: float

    @classmethod
    def from_complex(cls, z1: complex, z2: complex, z3: complex) -> "CPoint3":
        return cls(z1.real, z1.imag, z2.real, z2.imag, z3.real, z3.imag)

    @property
    def z1(self) -> complex:
        return complex(self.re1, self.im1)

    @property
    def z2(self) -> complex:
        return complex(self.re2, self.im2)

    @property
    def z3(self) -> complex:
        return complex(self.re3, self.im3)


@dataclass(frozen=True)
class ComplexLineParams:
    """Line parameters (a, b, w): two reals and a complex, all in the unit ball."""

    a: float
    b: float
    w: complex

    def __post_init__(self):
        if not (
            abs(self.a) <= 1.0 + _BOUND_TOL
            and abs(self.b) <= 1.0 + _BOUND_TOL
            and abs(self.w) <= 1.0 + _BOUND_TOL
        ):
            raise HeisenbergError("line parameters must satisfy |a|,|b|,|w| <= 1")


def membership_defect(p: CPoint3) -> float:
    """Distance of a point from the surface equation: |Im z1 - Im(z2 conj(z3))|."""
    return abs(p.z1.imag - (p.z2 * p.z3.conjugate()).imag)


def _real_defect(r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Defect of z = r e^{i phi}: |r1 sin phi1 - r2 r3 sin(phi2 - phi3)|."""
    d = r[:, 1] * r[:, 2] * np.sin(phi[:, 1] - phi[:, 2])
    d -= r[:, 0] * np.sin(phi[:, 0])
    return np.abs(d, out=d)


def _disc_spiral(n: int, radius: float) -> np.ndarray:
    """n quasi-uniform points of the closed disc, on a golden-angle spiral."""
    k = np.arange(n)
    r = radius * np.sqrt((k + 0.5) / n)
    phi = k * (math.pi * (3.0 - math.sqrt(5.0)))
    return r * np.exp(1j * phi)


def surface_line_point(params: ComplexLineParams, z: complex) -> CPoint3:
    """Gauge-fixed chart: z maps to (b + conj(w) z, z, w + a z).

    Exactly on the surface for every parameter choice: both sides of
    the defining equation reduce to Im(conj(w) z) since a and b are
    real.  All coordinates stay inside the polydisc for |z| <= 1/2.
    """
    a, b, w = params.a, params.b, params.w
    return CPoint3.from_complex(b + w.conjugate() * z, z, w + a * z)


def surface_segment_points(params: ComplexLineParams, n: int) -> list[CPoint3]:
    """Gauge-fixed chart sampled over the core disc |z| <= 1/2."""
    if n < 1:
        raise HeisenbergError("need at least one sample")
    return [surface_line_point(params, complex(z)) for z in _disc_spiral(n, 0.5)]


def _inverse_delta(delta: float) -> int:
    if 0 < delta * _MAX_INVERSE_DELTA < 1.0:
        raise HeisenbergError(f"1/delta = {1.0 / delta:g} is over the limit of "
                              f"{_MAX_INVERSE_DELTA:,}")
    inv = round(1.0 / delta) if 0 < delta < math.inf else 0
    if inv < 1 or abs(inv * delta - 1.0) > 1e-9:
        raise HeisenbergError("1/delta must be a positive integer")
    return inv


def _disc_lattice_count(inv: int) -> int:
    # integer points (i, j) with i^2 + j^2 <= inv^2, exact arithmetic
    return sum(
        2 * math.isqrt(inv * inv - i * i) + 1 for i in range(-inv, inv + 1)
    )


def lattice_count(delta: float) -> int:
    """Size of the admissible parameter lattice.

    (delta Z)^4 cut to [-1,1]^4 and then to the disc |w| <= 1, the
    admissible subset where the parameter contract holds; the a and b
    axes keep all 2/delta + 1 ticks.
    """
    inv = _inverse_delta(delta)
    return (2 * inv + 1) ** 2 * _disc_lattice_count(inv)


def complex_tube_volume(delta: float) -> float:
    """Volume model for one complex delta-tube: (pi delta^2)^2 * (pi/4).

    Squared disc cross-section times the area of the core disc
    |z| <= 1/2; the parameter-dependent stretch of the chart, between
    1 and 3, is deliberately dropped from the model.
    """
    return (math.pi * delta**2) ** 2 * (math.pi / 4.0)


def heisenberg_neighborhood_volume(
    delta: float, samples: int, seed: int = 0
) -> VolumeEstimate:
    """Monte Carlo volume of {defect <= delta} in the radius-2 polydisc.

    Upper-bounds the volume of any union of family tubes once delta is
    rescaled by MEMBERSHIP_CALIBRATION, since tubes live where the
    defect is small.  Samples z = 2 sqrt(u) e^{i phi} are tested in
    real form only; each count depends on the seed alone, not on the
    thread count.
    """
    if not delta > 0:
        raise HeisenbergError(f"delta must be positive, got {delta}")
    if samples < 10**4:
        raise HeisenbergError("need at least 10^4 samples")

    def hits(rng, size: int) -> int:
        r = 2.0 * np.sqrt(rng.random((size, 3)))
        phi = rng.random((size, 3)) * (2.0 * math.pi)
        return int(np.count_nonzero(_real_defect(r, phi) <= delta))

    p = mc_hit_fraction(hits, samples, seed)
    se = _POLYDISC_VOLUME * math.sqrt(p * (1.0 - p) / samples)
    return VolumeEstimate(_POLYDISC_VOLUME * p, se, "monte-carlo", samples=samples)
