"""Peak memory of the two analysis steps that used to hold full grids.

Each run goes in a fresh interpreter that reports its own RUSAGE_SELF
peak, so other tests' children cannot mask it.  Linux carries the
high-water mark of the address space an exec replaces into the new
program's RUSAGE_SELF, so a child exec'd straight from this (large)
test process would start at this process's peak: the run is launched
from a small intermediate interpreter instead.
The Fefferman step at r = 1/16 works on N = 4096, where one complex
N x N array is 256 MiB.  The dense path peaked at about 805 MiB and the
in-place N x N transform at about 418 MiB; the transform on the covered
rows, in column strips, peaks at about 228 MiB.  Its bound, 320 MiB,
fails a run that holds a complex N x N spectrum again beside |f|: that
array alone is 256 MiB over the interpreter's 30 MiB and |f|'s 128 MiB.
The m=6 tree curve down to delta = 2^-12 peaked at about 450 MiB with
the whole-grid region fill, at about 98 MiB with the strip-wise disc-dilation fill, at about
38 MiB since regions share the tubes' row-span capsule fill, and at
about 43 MiB since its sparse strips of 2^20 cells count their sorted
steps.  The capsule fill of the delta = 2^-8 bush down to 2^-8 peaked
at about 63 MiB with the whole grid and per-tube boxes, at about
212 MiB with row spans taken all at once instead of in blocks, at
about 37 MiB with strips of 2^18 cells and at about 40 MiB with strips
of 2^20.  The union volume
of the delta = 2^-9 bush peaked at about 142 MiB when the tube index was
built one tube at a time, most of it the index's whole-family gap
temporaries; built in blocks of walk points it peaks at about 82 MiB.
"""

import os
import subprocess
import sys
from pathlib import Path

import kakeyalab

SRC = str(Path(kakeyalab.__file__).resolve().parents[1])


TREE = ("from kakeyalab.perron import PerronSpec, build_perron_tree\n"
        "tree = build_perron_tree(PerronSpec.default(6))\n")


def peak_mib(code: str) -> float:
    env = dict(os.environ, KAKEYA_LAB_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    script = ("import resource\n"
              + code +
              "\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    launcher = ("import subprocess, sys\n"
                "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)")
    out = subprocess.run([sys.executable, "-c", launcher, script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return int(out.split()[-1]) / 1024.0


def test_fefferman_peak_under_two_arrays():
    peak = peak_mib(TREE + "from kakeyalab.spectral import fefferman_experiment\n"
                    "fefferman_experiment(tree, 1 / 16, 4.0)")
    assert peak < 320.0, f"fefferman r=1/16 peaked at {peak:.0f} MiB"


def test_region_curve_peak():
    peak = peak_mib(TREE + "from kakeyalab.boxdim import neighborhood_volume_curve\n"
                    "neighborhood_volume_curve(tree.region, "
                    "[2.0 ** -k for k in range(9, 13)])")
    assert peak < 256.0, f"m=6 region curve to 2^-12 peaked at {peak:.0f} MiB"


def test_tube_curve_peak():
    peak = peak_mib("from kakeyalab.boxdim import neighborhood_volume_curve\n"
                    "from kakeyalab.tubelab.generate import generate_family\n"
                    "fam = generate_family(2.0 ** -8, 2, 'bush', seed=11)\n"
                    "neighborhood_volume_curve(fam, [2.0 ** -k for k in range(5, 9)])")
    assert peak < 96.0, f"bush curve to 2^-8 peaked at {peak:.0f} MiB"


def test_bush_union_volume_peak():
    peak = peak_mib("from kakeyalab.tubelab import generate_family, union_volume\n"
                    "fam = generate_family(2.0 ** -9, 2, 'bush')\n"
                    "union_volume(fam, samples=1_000_000, seed=0)")
    assert peak < 112.0, f"bush union volume at 2^-9 peaked at {peak:.0f} MiB"
