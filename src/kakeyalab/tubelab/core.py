"""Tube families: types and elementary geometry.

A tube is the closed delta-neighbourhood of a core segment, without end
caps: points a + t*omega + v with 0 <= t <= len and v perpendicular to
omega, |v| <= delta.  `in_tube` is the one membership test for that
set.  A family is three read-only arrays, anchors and omegas (n, dim)
and lengths (n,), at one common scale delta, with a tag recording how
it was placed.  Its JSON wire format keeps one {a, omega, len} record
per tube.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TubeFamily",
    "Prism",
    "VolumeEstimate",
    "TubeError",
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


@dataclass(frozen=True, eq=False)
class TubeFamily:
    """Finite family of tubes at one common scale: tube i is the closed
    delta-tube around the segment from anchors[i] to
    anchors[i] + lengths[i] * omegas[i]."""

    delta: float
    anchors: np.ndarray
    omegas: np.ndarray
    lengths: np.ndarray
    placement_tag: str = ""

    def __post_init__(self):
        try:
            A, W, L = (np.array(x, dtype=float) for x in (self.anchors, self.omegas, self.lengths))
        except ValueError as exc:  # ragged rows, or entries that are not numbers
            raise TubeError(f"tubes must be rows of numbers of one dimension: {exc}") from exc
        if not A.size:
            raise TubeError("a family needs at least one tube")
        if A.ndim != 2 or A.shape[1] not in (2, 3):
            raise TubeError(f"anchors must be an (n, 2) or (n, 3) array, got shape {A.shape}")
        if W.shape != A.shape or L.shape != A.shape[:1]:
            raise TubeError(f"anchors {A.shape}, omegas {W.shape} and lengths {L.shape} "
                            "must agree in shape")
        if not all(np.isfinite(v).all() for v in (A, W, L)):
            raise TubeError("anchors, omegas and lengths must be finite")
        if (np.abs(np.linalg.norm(W, axis=1) - 1.0) > UNIT_TOL).any():
            raise TubeError("omega must be a unit vector (within 1e-12)")
        # Radius 1 is admitted so coarsening a family all the way up
        # remains expressible; generation entry points stay below 1.
        if not (0.0 < self.delta <= 1.0):
            raise TubeError(f"delta must lie in (0, 1], got {self.delta}")
        if not (L > 0.0).all():
            raise TubeError(f"lengths must be positive, got {L.min()}")
        for name, v in (("anchors", A), ("omegas", W), ("lengths", L)):
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    def __len__(self) -> int:
        return len(self.lengths)


def family_total_volume(fam: TubeFamily) -> float:
    """Sum of the tube volumes (no end caps), added left to right."""
    cross = 2.0 * fam.delta if fam.dim == 2 else math.pi * fam.delta**2
    return sum((cross * fam.lengths).tolist())


def family_bbox(fam: TubeFamily) -> tuple[np.ndarray, np.ndarray]:
    B = fam.anchors + fam.lengths[:, None] * fam.omegas
    return (np.minimum(fam.anchors, B).min(axis=0) - fam.delta,
            np.maximum(fam.anchors, B).max(axis=0) + fam.delta)


def family_to_json(fam: TubeFamily) -> str:
    """Canonical JSON: sorted keys, no whitespace, floats via repr."""
    doc = {
        "dim": fam.dim,
        "delta": fam.delta,
        "placement_tag": fam.placement_tag,
        "tubes": [{"a": a, "omega": w, "len": length} for a, w, length in
                  zip(fam.anchors.tolist(), fam.omegas.tolist(), fam.lengths.tolist())],
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def family_from_json(text: str) -> TubeFamily:
    doc = json.loads(text)
    recs = doc["tubes"]
    fam = TubeFamily(float(doc["delta"]), [r["a"] for r in recs], [r["omega"] for r in recs],
                     [r["len"] for r in recs], str(doc["placement_tag"]))
    if fam.dim != int(doc["dim"]):
        raise TubeError(f"a {doc['dim']}-D family has {fam.dim}-vector tubes")
    return fam


@dataclass(frozen=True, eq=False)
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
