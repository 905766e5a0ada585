"""Structural checks on tube families.

Pairwise-overlap flags, the prism occupancy axiom, coarse-scale
fattening and the sticky count test.  All sampling is seeded and
chunked deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import make_rng
from .core import (
    Prism,
    TubeError,
    TubeFamily,
    _axis_dot,
    _segment_distance_batch,
    family_bbox,
    in_tube,
)

__all__ = [
    "admit_checks",
    "PairOverlap",
    "DistinctReport",
    "essentially_distinct_check",
    "PrismCheck",
    "WolffReport",
    "wolff_axiom_check",
    "FattenResult",
    "fatten",
    "StickyScale",
    "StickyReport",
    "sticky_check",
]


def _perp_frame(omegas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Orthonormal basis of each direction's perpendicular plane.

    Deterministic: seeded from the coordinate axis least aligned with
    omega, so axis-parallel directions get axis-aligned frames.
    """
    n, dim = omegas.shape
    if dim == 2:
        return (np.stack([-omegas[:, 1], omegas[:, 0]], axis=1),)
    axis = np.argmin(np.abs(omegas), axis=1)
    h = np.zeros_like(omegas)
    h[np.arange(n), axis] = 1.0
    e1 = h - _axis_dot(h.T, omegas.T)[:, None] * omegas
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(omegas, e1)
    return e1, e2


@dataclass(frozen=True)
class PairOverlap:
    """Sampled overlap of tube j inside tube i (fraction of |T_i|)."""

    i: int
    j: int
    estimate: float
    std_error: float


@dataclass(frozen=True)
class DistinctReport:
    n_pairs: int
    n_sampled: int
    samples_per_pair: int
    flagged: tuple[PairOverlap, ...]

    @property
    def ok(self) -> bool:
        return not self.flagged


# Most pairs essentially_distinct_check examines: twice criterion 5's
# 8,386,560 (parallel lines at delta = 1/64).
_MAX_PAIRS = 1 << 24


def admit_checks(n: int, dim: int, delta: float, names) -> None:
    """Raise the TubeError of the first named check that would refuse a
    family of n tubes of width delta in dim dimensions (sticky on its
    default scale ladder), before any check does work."""
    for name in names:
        if name == "distinct" and n * (n - 1) // 2 > _MAX_PAIRS:
            raise TubeError(f"{n:,} tubes make {n * (n - 1) // 2:,} pairs, "
                            f"over the limit of {_MAX_PAIRS:,}")
        if name == "wolff" and dim != 3:
            raise TubeError("the prism occupancy check is three-dimensional only")
        if name == "sticky" and abs(delta * 2 ** round(math.log2(1.0 / delta)) - 1.0) > 1e-9:
            raise TubeError("the default scale ladder needs a dyadic delta")


def _line_share(Ai, Wi, Li, Aj, Wj, cut):
    """Row-wise share of t in [0, L_i] with core_i(t) within cut of line_j:
    the interval where |P + tQ| <= cut, P and Q the parts of a_i - a_j and
    w_i across w_j, about the minimiser t0 (its residual V is explicit)."""
    P, Q = (v - _axis_dot(v.T, Wj.T)[:, None] * Wj for v in (Ai - Aj, Wi))
    qa = _axis_dot(Q.T, Q.T)
    t0 = np.where(qa > 0.0, -_axis_dot(P.T, Q.T) / np.where(qa > 0.0, qa, 1.0), 0.0)
    V = P + t0[:, None] * Q
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel: +-inf or nan
        half = np.sqrt((cut * cut - _axis_dot(V.T, V.T)) / qa)
    return (np.clip(t0 + half, 0.0, Li) - np.clip(t0 - half, 0.0, Li)) / Li


def _live_uniform(rng, q: int, live: np.ndarray, S: int, lo: float, hi: float):
    """Rows `live` of the q-th of consecutive uniform(lo, hi, (len(live), S))
    arrays from the start of rng's Philox stream, drawing only those rows.

    A double takes one 64-bit output, so a run of live rows [a, b) starts
    at output e = (q len(live) + a) S: set the counter to e // 4 with the
    buffer emptied, discard e % 4 outputs, fill the run.  lo + (hi - lo) U
    is Generator.uniform's formula, so every bit agrees.
    """
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False)).tolist()
    state = rng.bit_generator.state
    u, pos = np.empty((int(live.sum()), S)), 0
    for a, b in zip(edges[::2], edges[1::2]):
        e = (q * len(live) + a) * S
        state["state"]["counter"][0], state["buffer_pos"] = e // 4, 4
        rng.bit_generator.state = state
        rng.bit_generator.random_raw(e % 4)
        rng.random(out=u[pos : pos + b - a])
        pos += b - a
    u *= hi - lo
    u += lo
    return u


def essentially_distinct_check(
    fam: TubeFamily, samples_per_pair: int = 64, seed: int = 0
) -> DistinctReport:
    """Flag pairs whose overlap, sampled inside the first tube, exceeds
    half its volume by more than three standard errors.

    Pairs whose core segments stay farther apart than 2 delta cannot
    meet; they are recorded as zero overlap without sampling.  Nor are
    pairs whose line bound is at most 1/2 - 1e-9: a point of T_i at axial
    position t lies within delta of core_i(t) and, if in T_j, within delta
    of line_j, so T_j holds at most the share of t with core_i(t) within
    2 delta of line_j (`_line_share`).  Block k of 2^21 / samples_per_pair
    prefiltered pairs draws from make_rng(seed, k) only the rows of its
    sampled pairs (`_live_uniform`), so a sampled pair sees the same
    samples whatever the bound clears; n_sampled counts them.

    Direction separation by delta does not by itself keep a pair below
    the half-volume line: two length-1 tubes through a common point
    with directions a full delta apart still share about 0.69 of a
    tube, so flags on clustered families are expected and genuine.
    """
    if samples_per_pair < 1:
        raise TubeError(f"samples_per_pair must be at least 1, got {samples_per_pair}")
    admit_checks(len(fam), fam.dim, fam.delta, ("distinct",))
    n, d = len(fam), fam.dim
    A, W, L = fam.anchors, fam.omegas, fam.lengths
    B = A + L[:, None] * W
    cut = 2.0 * fam.delta + 1e-12

    # Prefilter and line bound, in row blocks of at most 2^18 pairs (or one
    # row): each pair costs a few hundred bytes of (pairs, dim) temporaries.
    keep, live = [], []
    block_rows = max(1, (1 << 18) // max(n, 1))
    for i0 in range(0, n, block_rows):
        rows = np.arange(i0, min(i0 + block_rows, n))
        ii, jj = np.nonzero(np.arange(n) > rows[:, None])  # pairs i < j, row-major
        ii += i0
        near = _segment_distance_batch(A[ii], B[ii], A[jj], B[jj]) <= cut
        ii, jj = ii[near], jj[near]
        keep.append(np.stack((ii, jj)))
        live.append(_line_share(A[ii], W[ii], L[ii], A[jj], W[jj], cut) > 0.5 - 1e-9)
    I, J = np.concatenate(keep, axis=1)
    live = np.concatenate(live)

    flagged = []
    S = samples_per_pair
    pair_block = max(1, (1 << 21) // S)
    for bidx, p0 in enumerate(range(0, len(I), pair_block)):
        m = live[p0 : p0 + pair_block]
        bi, bj = I[p0 : p0 + pair_block][m], J[p0 : p0 + pair_block][m]
        rng = make_rng(seed, bidx)
        t = _live_uniform(rng, 0, m, S, 0.0, 1.0) * L[bi][:, None]
        # Per-axis (pairs, S) coordinates of points sampled in tube i.
        pts = [a[:, None] + t * w[:, None] for a, w in zip(A[bi].T, W[bi].T)]
        if d == 2:
            (e1,) = _perp_frame(W[bi])
            r = fam.delta * _live_uniform(rng, 1, m, S, -1.0, 1.0)
            pts = [p + r * e[:, None] for p, e in zip(pts, e1.T)]
        else:
            e1, e2 = _perp_frame(W[bi])
            rad = fam.delta * np.sqrt(_live_uniform(rng, 1, m, S, 0.0, 1.0))
            ang = _live_uniform(rng, 2, m, S, 0.0, 2.0 * math.pi)
            x, y = rad * np.cos(ang), rad * np.sin(ang)
            pts = [p + x * u[:, None] + y * v[:, None]
                   for p, u, v in zip(pts, e1.T, e2.T)]
        hit = in_tube(pts, A[bj].T[:, :, None], W[bj].T[:, :, None],
                      L[bj][:, None], fam.delta)
        phat = hit.mean(axis=1)
        se = np.sqrt(phat * (1.0 - phat) / S)
        bad = phat > 0.5 + 3.0 * se
        for k in np.flatnonzero(bad):
            flagged.append(
                PairOverlap(int(bi[k]), int(bj[k]), float(phat[k]), float(se[k]))
            )
    return DistinctReport(n * (n - 1) // 2, int(live.sum()), S, tuple(flagged))


@dataclass(frozen=True)
class PrismCheck:
    kind: str
    count: int
    bound: float
    prism: Prism

    @property
    def ratio(self) -> float:
        return self.count / self.bound


@dataclass(frozen=True)
class WolffReport:
    n_checked: int
    violations: tuple[PrismCheck, ...]
    slab: PrismCheck
    max_ratio: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _prism_counts(C, H, F, A, B, W, L, delta) -> np.ndarray:
    """Tubes wholly inside each closed prism p: center C[p], half-extents
    H[p], axes the rows of F[p].

    Along prism axis f the tube bulges delta*sqrt(1-(f.omega)^2) beyond
    its core, so containment is both endpoints clearing every face by
    that margin.  A tube inside a box is no longer than its diagonal, so
    prisms with a diagonal under the shortest tube count 0 untested; the
    rest are counted in blocks of about 2^13 (prism, tube) pairs.
    """
    h = H + 1e-15
    counts = np.zeros(len(C), dtype=int)
    fit = np.flatnonzero(2.0 * np.linalg.norm(h, axis=1) + 1e-9 >= L.min())
    step = max(1, (1 << 13) // len(A))
    for p in (fit[p0 : p0 + step] for p0 in range(0, len(fit), step)):
        Ft = F[p].transpose(0, 2, 1)
        ndw = W @ Ft
        margin = delta * np.sqrt(np.maximum(0.0, 1.0 - ndw * ndw))
        ca, cb = ((np.abs((E - C[p][:, None]) @ Ft) + margin <= h[p][:, None]).all(axis=2)
                  for E in (A, B))
        counts[p] = (ca & cb).sum(axis=1)
    return counts


def wolff_axiom_check(
    fam: TubeFamily, n_prisms: int = 2000, seed: int = 0
) -> WolffReport:
    """Prism occupancy axiom: no prism R contains more than |R|/delta^2
    tubes.  Checks the slab around the unit z=0 square, prisms fitted to
    the family's principal axes, and seeded random prisms, in that order.
    """
    admit_checks(len(fam), fam.dim, fam.delta, ("wolff",))
    d = fam.delta
    A, W, L = fam.anchors, fam.omegas, fam.lengths
    B = A + L[:, None] * W
    lo, hi = family_bbox(fam)

    C, H = np.empty((2, 4 + n_prisms, 3))
    F = np.empty((4 + n_prisms, 3, 3))
    C[0], H[0], F[0] = [0.5, 0.5, 0.0], [0.5 + d, 0.5 + d, d], np.eye(3)

    mids = 0.5 * (A + B)
    mu = mids.mean(axis=0)
    cov = np.cov((mids - mu).T) + 1e-12 * np.eye(3)
    _, vecs = np.linalg.eigh(cov)
    frame = vecs.T[::-1]  # leading axis first
    spread = np.abs((mids - mu) @ frame.T).max(axis=0) + d + 1e-9
    C[1:4], H[1:4], F[1:4] = mu, spread, frame  # then thin on the last 1, 2 axes
    H[2, 2:] = H[3, 1:] = max(2.0 * d, 1e-6)

    rng = make_rng(seed, 0)
    span = float(np.linalg.norm(hi - lo)) / 2.0
    for k in range(4, 4 + n_prisms):
        C[k] = rng.uniform(0.0, 1.0, size=3) * (hi - lo) + lo
        F[k] = rng.normal(size=(3, 3))
        H[k] = np.exp(rng.uniform(math.log(d), math.log(max(span, 2 * d)), size=3))
    F[4:] = np.linalg.qr(F[4:])[0]

    counts = _prism_counts(C, H, F, A, B, W, L, d)
    bounds = np.prod(2.0 * H, axis=1) / (d * d)
    kinds = ["slab"] + ["fitted"] * 3 + ["random"] * n_prisms

    def check(k: int) -> PrismCheck:
        return PrismCheck(kinds[k], int(counts[k]), float(bounds[k]), Prism(C[k], H[k], F[k]))

    violations = tuple(check(k) for k in np.flatnonzero(counts > bounds))
    return WolffReport(len(C), violations, check(0), float((counts / bounds).max()))


@dataclass(frozen=True)
class FattenResult:
    """Greedy coarsening of a family to scale rho.

    assignment[i] is the position in kept_indices of the kept tube that
    absorbed input tube i; kept tubes absorb themselves.
    """

    family: TubeFamily
    kept_indices: tuple[int, ...]
    assignment: tuple[int, ...]


def fatten(fam: TubeFamily, rho: float) -> FattenResult:
    """Extract rho-tubes greedily in input order.

    A tube is absorbed by the first kept tube whose core line is within
    rho in position (sup-norm in the kept tube's perpendicular frame)
    and rho in direction (antipodal chord), both strictly; otherwise it
    is kept and fattened to radius rho.
    """
    if rho < fam.delta:
        raise TubeError(f"rho must be at least delta, got {rho} < {fam.delta}")
    A, W, L = fam.anchors, fam.omegas, fam.lengths
    rows = (W, A, *_perp_frame(W))
    held = [np.empty_like(r) for r in rows]  # row m of each: the m-th kept tube's
    kept: list[int] = []
    assign: list[int] = []
    for i in range(len(fam)):
        kw, ka, *kf = (h[:len(kept)] for h in held)
        diff_m = np.linalg.norm(kw - W[i], axis=1)
        diff_p = np.linalg.norm(kw + W[i], axis=1)
        dir_close = np.minimum(diff_m, diff_p) < rho
        off = A[i] - ka
        pos = np.abs(_axis_dot(off.T, kf[0].T))
        for f in kf[1:]:
            pos = np.maximum(pos, np.abs(_axis_dot(off.T, f.T)))
        close = np.flatnonzero(dir_close & (pos < rho))
        if close.size:
            assign.append(int(close[0]))
        else:
            for h, r in zip(held, rows):
                h[len(kept)] = r[i]
            assign.append(len(kept))
            kept.append(i)
    return FattenResult(TubeFamily(rho, A[kept], W[kept], L[kept], fam.placement_tag),
                        tuple(kept), tuple(assign))


@dataclass(frozen=True)
class StickyScale:
    rho: float
    n_kept: int
    min_norm: float
    max_norm: float
    ok: bool


@dataclass(frozen=True)
class StickyReport:
    """Per-scale normalized child counts count * (delta/rho)^(dim - 1):
    count * delta/rho in the plane, count * (delta/rho)^2 in space.

    The verdict can depend on the greedy extraction order; kept tubes
    are always extracted in input order here.
    """

    delta: float
    c_bound: float
    scales: tuple[StickyScale, ...]
    order_note: str = "greedy extraction in input order"

    @property
    def sticky(self) -> bool:
        return all(s.ok for s in self.scales)


def sticky_check(
    fam: TubeFamily, rhos: list[float] | None = None, c_bound: float = 4.0
) -> StickyReport:
    """Sticky test: at every scale rho each kept rho-tube should absorb
    about (rho/delta)^(dim - 1) tubes, the delta-separated directions
    within rho of one, within the factor c_bound.
    """
    if rhos is None:
        admit_checks(len(fam), fam.dim, fam.delta, ("sticky",))
        k = round(math.log2(1.0 / fam.delta))
        rhos = [fam.delta * 2**s for s in range(k + 1)]
    rows = []
    for rho in rhos:
        res = fatten(fam, rho)
        counts = np.bincount(res.assignment, minlength=len(res.kept_indices))
        norm = counts * (fam.delta / rho) ** (fam.dim - 1)
        lo = float(norm.min())
        hi = float(norm.max())
        rows.append(
            StickyScale(rho, len(res.kept_indices), lo, hi, lo >= 1.0 / c_bound and hi <= c_bound)
        )
    return StickyReport(fam.delta, c_bound, tuple(rows))
