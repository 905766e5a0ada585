"""Per-prism Wolff check, kept as the test oracle for the batched count.

This is the check the package used before it counted prisms in blocks
and skipped the ones too short to hold a tube: every prism (the slab,
the three fitted prisms, then the seeded random ones, drawn in the same
order) is built as a `Prism` and counted on its own.
"""

import math

import numpy as np

from kakeyalab.rng import make_rng
from kakeyalab.tubelab.checks import PrismCheck, WolffReport
from kakeyalab.tubelab.core import Prism, family_bbox


def prism_count(prism, A, B, W, delta):
    """Tubes wholly inside the closed prism.

    Along prism axis f the tube bulges delta*sqrt(1-(f.omega)^2) beyond
    its core, so containment is both endpoints clearing every face by
    that margin.
    """
    ndw = W @ prism.frame.T
    margin = delta * np.sqrt(np.maximum(0.0, 1.0 - ndw * ndw))
    h = prism.half_extents[None, :] + 1e-15
    ca = np.abs((A - prism.center) @ prism.frame.T) + margin
    cb = np.abs((B - prism.center) @ prism.frame.T) + margin
    return int(np.sum((ca <= h).all(axis=1) & (cb <= h).all(axis=1)))


def prism_checks(fam, n_prisms=2000, seed=0):
    """Every prism the Wolff check examines, in order, with its count."""
    d = fam.delta
    A, W, L = fam.anchors, fam.omegas, fam.lengths
    B = A + L[:, None] * W
    lo, hi = family_bbox(fam)

    checks = []

    def add(kind, prism):
        count = prism_count(prism, A, B, W, d)
        volume = float(np.prod(2.0 * prism.half_extents))
        checks.append(PrismCheck(kind, count, volume / (d * d), prism))

    add("slab", Prism(np.array([0.5, 0.5, 0.0]), np.array([0.5 + d, 0.5 + d, d]),
                      np.eye(3)))

    mids = 0.5 * (A + B)
    mu = mids.mean(axis=0)
    cov = np.cov((mids - mu).T) + 1e-12 * np.eye(3)
    _, vecs = np.linalg.eigh(cov)
    frame = vecs.T[::-1]
    spread = np.abs((mids - mu) @ frame.T).max(axis=0) + d + 1e-9
    for thin in range(3):
        half = spread.copy()
        if thin:
            half[-thin:] = np.maximum(2.0 * d, 1e-6)
        add("fitted", Prism(mu, half, frame))

    rng = make_rng(seed, 0)
    span = float(np.linalg.norm(hi - lo)) / 2.0
    for _ in range(n_prisms):
        center = rng.uniform(0.0, 1.0, size=3) * (hi - lo) + lo
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        half = np.exp(rng.uniform(math.log(d), math.log(max(span, 2 * d)), size=3))
        add("random", Prism(center, half, q))
    return checks


def wolff_axiom_check(fam, n_prisms=2000, seed=0):
    checks = prism_checks(fam, n_prisms, seed)
    violations = tuple(c for c in checks if c.count > c.bound)
    return WolffReport(len(checks), violations, checks[0], max(c.ratio for c in checks))
