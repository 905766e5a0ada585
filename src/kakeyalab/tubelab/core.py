"""Tube families: types and elementary geometry.

A tube is the closed delta-neighbourhood of a core segment, without end
caps: points a + t*omega + v with 0 <= t <= len and v perpendicular to
omega, |v| <= delta.  `in_tube` is the one membership test for that
set.  Families carry a common scale and a tag recording how they were
placed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tube",
    "TubeFamily",
    "Prism",
    "VolumeEstimate",
    "TubeError",
    "tube_volume",
    "family_total_volume",
    "family_bbox",
    "family_to_json",
    "family_from_json",
]

# |omega| may drift from 1 by accumulated rounding; anything worse than
# this is a construction bug, not noise.
UNIT_TOL = 1e-12


class TubeError(ValueError):
    """Raised for invalid tube or family parameters."""


def _as_vec(x, dim: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise TubeError(f"{name} must be a {dim}-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise TubeError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class Tube:
    """Closed delta-tube around the segment from a to a + length*omega."""

    dim: int
    a: np.ndarray
    omega: np.ndarray
    delta: float
    length: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise TubeError(f"dim must be 2 or 3, got {self.dim}")
        object.__setattr__(self, "a", _as_vec(self.a, self.dim, "anchor"))
        omega = _as_vec(self.omega, self.dim, "omega")
        if abs(float(np.linalg.norm(omega)) - 1.0) > UNIT_TOL:
            raise TubeError("omega must be a unit vector (within 1e-12)")
        object.__setattr__(self, "omega", omega)
        # Radius 1 is admitted so coarsening a family all the way up
        # remains expressible; generation entry points stay below 1.
        if not (0.0 < self.delta <= 1.0):
            raise TubeError(f"delta must lie in (0, 1], got {self.delta}")
        if not (self.length > 0.0):
            raise TubeError(f"length must be positive, got {self.length}")

    @property
    def b(self) -> np.ndarray:
        """Far endpoint of the core segment."""
        return self.a + self.length * self.omega

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.minimum(self.a, self.b) - self.delta
        hi = np.maximum(self.a, self.b) + self.delta
        return lo, hi


def tube_volume(tube: Tube) -> float:
    """Lebesgue volume of the tube (no end caps)."""
    if tube.dim == 2:
        return 2.0 * tube.delta * tube.length
    return math.pi * tube.delta**2 * tube.length


@dataclass(frozen=True)
class TubeFamily:
    """Finite family of tubes at one common scale."""

    delta: float
    tubes: tuple[Tube, ...]
    placement_tag: str = ""

    def __post_init__(self):
        tubes = tuple(self.tubes)
        if not tubes:
            raise TubeError("a family needs at least one tube")
        dims = {t.dim for t in tubes}
        if len(dims) != 1:
            raise TubeError("all tubes in a family must share a dimension")
        for t in tubes:
            if t.delta != self.delta:
                raise TubeError("all tubes must use the family scale delta")
        object.__setattr__(self, "tubes", tubes)

    @property
    def dim(self) -> int:
        return self.tubes[0].dim

    def __len__(self) -> int:
        return len(self.tubes)


def family_total_volume(fam: TubeFamily) -> float:
    return sum(tube_volume(t) for t in fam.tubes)


def family_bbox(fam: TubeFamily) -> tuple[np.ndarray, np.ndarray]:
    los, his = zip(*(t.bbox() for t in fam.tubes))
    return np.min(los, axis=0), np.max(his, axis=0)


def family_to_json(fam: TubeFamily) -> str:
    """Canonical JSON: sorted keys, no whitespace, floats via repr."""
    doc = {
        "dim": fam.dim,
        "delta": fam.delta,
        "placement_tag": fam.placement_tag,
        "tubes": [
            {"a": list(t.a), "omega": list(t.omega), "len": t.length}
            for t in fam.tubes
        ],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def family_from_json(text: str) -> TubeFamily:
    doc = json.loads(text)
    dim = int(doc["dim"])
    delta = float(doc["delta"])
    tubes = tuple(
        Tube(dim, rec["a"], rec["omega"], delta, float(rec["len"]))
        for rec in doc["tubes"]
    )
    return TubeFamily(delta, tubes, str(doc["placement_tag"]))


@dataclass(frozen=True)
class Prism:
    """Closed rectangular box: center, orthonormal frame, half-extents.

    Row i of `frame` is the axis for half-extent i.
    """

    center: np.ndarray
    half_extents: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        h = np.asarray(self.half_extents, dtype=float)
        f = np.asarray(self.frame, dtype=float)
        d = c.shape[0]
        if h.shape != (d,) or f.shape != (d, d):
            raise TubeError("prism fields must agree in dimension")
        if (h <= 0).any():
            raise TubeError("half-extents must be positive")
        if not np.allclose(f @ f.T, np.eye(d), atol=1e-9):
            raise TubeError("frame must be orthonormal")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_extents", h)
        object.__setattr__(self, "frame", f)


@dataclass(frozen=True)
class VolumeEstimate:
    """Volume figure with its uncertainty and provenance."""

    value: float
    std_error: float
    method: str
    resolution: int | None = None
    samples: int | None = None


def _axis_dot(xs, ys):
    """Sum of xs[d] * ys[d], added in axis order whatever the SIMD width."""
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total += x * y
    return total


def in_tube(p, a, w, length, delta):
    """Closed-tube membership of p; p, a, w are per-axis sequences whose
    entries broadcast together, p - a to the full shape.  The perpendicular
    part is explicit: |rel|^2 - t^2 cancels near the wall when t is large."""
    rel = [pd - ad for pd, ad in zip(p, a)]
    t = _axis_dot(rel, w)
    for r, wd in zip(rel, w):
        np.subtract(r, t * wd, out=r)  # in place: rel becomes the perpendicular part
    return (t >= 0.0) & (t <= length) & (_axis_dot(rel, rel) <= delta * delta)


def _segment_distance_batch(p1, q1, p2, q2) -> np.ndarray:
    """Row-wise segment-segment distances, clamped-parameter form."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = _axis_dot(d1.T, d1.T)
    e = _axis_dot(d2.T, d2.T)
    b = _axis_dot(d1.T, d2.T)
    c = _axis_dot(d1.T, r.T)
    f = _axis_dot(d2.T, r.T)
    den = a * e - b * b
    # Parallel pairs: pick s = 0 and rely on the clamp passes below.
    s = np.where(den > 1e-30, (b * f - c * e) / np.where(den > 1e-30, den, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = np.where(e > 1e-30, (b * s + f) / np.where(e > 1e-30, e, 1.0), 0.0)
    # Clamping t may invalidate s; redo s at the clamped t.
    t = np.clip(t, 0.0, 1.0)
    s = np.where(a > 1e-30, (b * t - c) / np.where(a > 1e-30, a, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    diff = (p1 + s[:, None] * d1) - (p2 + t[:, None] * d2)
    return np.sqrt(_axis_dot(diff.T, diff.T))
