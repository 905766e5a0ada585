"""Every attribute the benchmark's traced run wraps still exists.

perfbench/layers.py names kakeyalab functions by attribute; a rename or
deletion in src/ would otherwise surface only as a failing `--trace 1`
benchmark run.
"""

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
