"""Every kakeyalab name the benchmark reads still exists.

perfbench/layers.py names kakeyalab functions by attribute, and
perfbench/run.py records the exact core's rational type; a rename or
deletion in src/ would otherwise surface only as a failing benchmark run.
Likewise the counters read a call's arguments and result, so a signature
change must fail here rather than in a traced benchmark run.
"""

import importlib
from fractions import Fraction
from pathlib import Path

import numpy as np

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

    q = importlib.import_module("kakeyalab.exactgeom.scalar")._Q
    assert q is Fraction or q.__module__ == "gmpy2"
    assert run.environment()["rational_backend"] == f"{q.__module__}.{q.__qualname__}"


def test_overlay_counter_reads_a_real_perron_build(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    from kakeyalab import perron

    targets = [t for t in layers.targets()
               if t.owner is perron and t.attr == "overlay"]
    assert len(targets) == 1
    with tracer.Tracer().installed(targets) as tr:
        perron.build_perron_tree(perron.PerronSpec.default(3))
    assert [s.name for s in tr.spans] == ["exactgeom.overlay"]
    # 2^3 leaves, each a triangle (apex plus two base points): 24 edges in;
    # the union is 16 trapezoids, as the slab-sweep oracle also finds
    assert tr.spans[0].counts == {"edges_in": 24, "pieces_out": 16}


def test_only_outside_polygons_are_validated(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    from kakeyalab import perron

    targets = [t for t in layers.targets() if t.attr == "validate_simple_polygon"]
    assert len(targets) == 1
    with tracer.Tracer().installed(targets) as tr:
        tree = perron.build_perron_tree(perron.PerronSpec.default(3))
        perron.assemble_kakeya(tree)
    # the sweep's 16 tree and 110 assembly pieces are taken as built
    assert tr.spans == []
    text = perron.tree_to_json(tree)
    with tracer.Tracer().installed(targets) as tr:
        back = perron.tree_from_json(text)
    # pieces read from a file are validated, each once
    assert len(back.region.polygons) == 16
    assert [s.name for s in tr.spans] == ["exactgeom.validate"] * 16


def test_index_counters_ignore_the_candidate_order(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    from kakeyalab.tubelab import generate_family, parallel_lines_family, volume

    targets = [t for t in layers.targets()
               if t.owner is volume.TubeIndex and t.attr == "__init__"]
    assert len(targets) == 1
    # recorded from the index that ordered each cell's candidates by tube
    # id (a stable argsort by cell); nearest-first order must not move them
    want = [{"cells": 6833, "entries": 95691, "max_bucket": 402},
            {"cells": 81, "entries": 8420, "max_bucket": 178}]
    for fam, counts in zip([generate_family(2.0 ** -7, 2, "bush"),
                            parallel_lines_family(1 / 16)], want):
        with tracer.Tracer().installed(targets) as tr:
            volume.TubeIndex(fam)
        assert [s.name for s in tr.spans] == ["tubelab.index_build"]
        assert tr.spans[0].counts == counts


def test_index_counters_read_a_real_build(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer
    from tube_index_oracle import index_arrays

    from kakeyalab.tubelab import generate_family, parallel_lines_family, volume

    targets = [t for t in layers.targets()
               if t.owner is volume.TubeIndex and t.attr == "__init__"]
    assert len(targets) == 1
    for fam in [generate_family(2.0 ** -9, 2, "bush"), parallel_lines_family(1 / 32),
                generate_family(1 / 16, 3, "random", seed=5)]:
        with tracer.Tracer().installed(targets) as tr:
            index = volume.TubeIndex(fam)
        assert [s.name for s in tr.spans] == ["tubelab.index_build"]
        # TubeIndex.buckets, which only the counter reads, against the
        # per-tube build
        members, starts = index_arrays(index, fam)
        sizes = np.diff(starts)
        assert tr.spans[0].counts == {"cells": int(np.count_nonzero(sizes)),
                                      "entries": len(members),
                                      "max_bucket": int(sizes.max())}
