"""Counter-based random streams.

Every stochastic routine takes an explicit seed and derives independent
streams by index from a Philox generator, so results never depend on
call order or thread scheduling.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .parallel import map_ordered

_MC_CHUNK = 1 << 18
MAX_MC_SAMPLES = 1 << 30  # minutes of sampling for either estimator


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for (seed, stream); distinct streams are independent."""
    return np.random.Generator(np.random.Philox(key=np.uint64([seed, stream])))


def admit_samples(samples: int) -> None:
    """Refuse more than MAX_MC_SAMPLES samples, before any is drawn."""
    if samples > MAX_MC_SAMPLES:
        raise ValueError(f"{samples:,} Monte Carlo samples are over the limit "
                         f"of {MAX_MC_SAMPLES:,}")


def mc_hit_fraction(hits: Callable[[np.random.Generator, int], int],
                    samples: int, seed: int) -> float:
    """Monte Carlo hit fraction over `samples` draws.

    The draws are split into chunks of 2^18; chunk k draws from
    make_rng(seed, k), and hits(rng, size) returns how many of its size
    samples hit.  Chunks and the summation order are fixed by samples
    alone, so the fraction is bit-identical for any thread count.
    """
    admit_samples(samples)
    n_chunks = max(1, math.ceil(samples / _MC_CHUNK))
    sizes = [_MC_CHUNK] * (n_chunks - 1) + [samples - _MC_CHUNK * (n_chunks - 1)]

    def run(job) -> int:
        stream, size = job
        return hits(make_rng(seed, stream), size)

    return sum(map_ordered(run, list(enumerate(sizes)))) / samples
