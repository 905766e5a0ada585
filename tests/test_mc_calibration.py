"""Monte Carlo calibration: the reported standard errors are honest.

Over 50 seeds, the z-scores of an estimate against a reference measured
at a much higher sample count must look like draws from N(0, 1): their
mean inside its 3-sigma band, and the sum of their squares inside the
0.1%-99.9% band of chi-square with 50 degrees of freedom.  An estimator
that under-reports its standard error inflates the sum of squares.

The references are the values perfbench records (perfbench/reference.py,
seed 2^20, pinned in perfbench/workloads.py).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from kakeyalab.heisenberg import heisenberg_neighborhood_volume
from kakeyalab.tubelab import parallel_lines_family, union_volume

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = range(50)
# 0.1% and 99.9% quantiles of chi-square with 50 degrees of freedom
CHI2_50 = (24.674, 86.661)


@pytest.fixture
def reference(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads.MC_REFERENCE


def assert_calibrated(estimates, ref: float, ref_se: float) -> None:
    value = np.array([e.value for e in estimates])
    se = np.array([e.std_error for e in estimates])
    z = (value - ref) / np.hypot(se, ref_se)
    n = len(z)
    # The reference's own error is common to every z, so their mean
    # varies by more than 1/sqrt(n).
    rho = ref_se**2 / np.mean(se**2 + ref_se**2)
    band = 3.0 * math.sqrt((1.0 + (n - 1) * rho) / n)
    assert abs(z.mean()) <= band, f"mean z {z.mean():.3f} outside +-{band:.3f}"
    chi2 = float(np.sum(z**2))
    assert CHI2_50[0] <= chi2 <= CHI2_50[1], f"sum z^2 {chi2:.1f} outside {CHI2_50}"


def test_slab_union_volume(reference):
    fam = parallel_lines_family(1 / 32)
    estimates = [union_volume(fam, samples=200_000, seed=s) for s in SEEDS]
    assert_calibrated(estimates, *reference["slab"])


def test_heisenberg_volume(reference):
    estimates = [heisenberg_neighborhood_volume(2.0 ** -7, 1_000_000, seed=s)
                 for s in SEEDS]
    assert_calibrated(estimates, *reference["heisenberg"])
