"""Every kakeyalab name the benchmark reads still exists.

perfbench/layers.py names kakeyalab functions by attribute, and
perfbench/run.py records the exact core's rational type; a rename or
deletion in src/ would otherwise surface only as a failing benchmark run.
"""

import importlib
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    targets = layers.targets()
    assert targets
    missing = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
               for t in targets if t.attr not in vars(t.owner)]
    assert not missing, missing


def test_rational_backend_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    # by module path: the package exports a function named `scalar` too
    q = importlib.import_module("kakeyalab.exactgeom.scalar")._Q
    assert q is Fraction or q.__module__ == "gmpy2"
    assert run.environment()["rational_backend"] == f"{q.__module__}.{q.__qualname__}"
