"""Complex-form Heisenberg sampler, kept as the test oracle for the
neighbourhood volume.

This is the sampler the package used before it tested the defect in
real form: every chunk draws u and phi with rng.uniform, builds
z = 2 sqrt(u) e^{i phi} with one complex exp over all three coordinates
and counts _defect(z) <= delta.  The package draws the same bits in the
same order and counts any chunk with a sample near delta by this very
formula, so its hit counts equal these.
"""

import math

import numpy as np

from kakeyalab.heisenberg import _POLYDISC_VOLUME, HeisenbergError, _defect
from kakeyalab.rng import mc_hit_fraction
from kakeyalab.tubelab.core import VolumeEstimate


def sample_defects(rng, size):
    """The complex-form defects of one chunk's size draws."""
    r = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, size=(size, 3)))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(size, 3))
    z = r * np.exp(1j * phi)
    return _defect(z[:, 0], z[:, 1], z[:, 2])


def heisenberg_neighborhood_volume(delta, samples, seed=0):
    if samples < 10**4:
        raise HeisenbergError("need at least 10^4 samples")

    def hits(rng, size):
        return int((sample_defects(rng, size) <= delta).sum())

    p = mc_hit_fraction(hits, samples, seed)
    se = _POLYDISC_VOLUME * math.sqrt(p * (1.0 - p) / samples)
    return VolumeEstimate(_POLYDISC_VOLUME * p, se, "monte-carlo", samples=samples)
