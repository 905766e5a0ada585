"""Which kakeyalab functions the traced run wraps, and the per-layer
metrics computed from their spans.

Each target is a module or class attribute that the program looks up at
call time: cli.main calls the handlers' dependencies through its own
globals (emit_svg, build_perron_tree, union_volume, ...), perron calls
overlay and contains_segment through its globals, and so on.
"""

from __future__ import annotations

import importlib

from tracer import Span, Target, cli_module, outermost, self_times


def _overlay(counts, args, kwargs, result):
    groups = args[0]
    counts["edges_in"] = sum(len(poly) for group in groups for poly in group)
    counts["pieces_out"] = len(result[0])


def _coverage(counts, args, kwargs, result):
    counts["directions"] = result.n_dirs


def _family(counts, args, kwargs, result):
    counts["tubes"] = len(result)


def _index_build(counts, args, kwargs, result):
    sizes = [len(b) for b in args[0].buckets.values()]
    counts["cells"] = len(sizes)
    counts["entries"] = sum(sizes)
    counts["max_bucket"] = max(sizes, default=0)


def _contains(counts, args, kwargs, result):
    counts["points"] = len(args[1])


def _volume(counts, args, kwargs, result):
    counts["samples"] = result.samples or 0


def _distinct(counts, args, kwargs, result):
    counts["pairs"] = result.n_pairs
    counts["sampled"] = result.n_sampled
    counts["flagged"] = len(result.flagged)


def _fft(counts, args, kwargs, result):
    f = args[0]
    counts["bytes"] = 16 * f.N ** f.dim


def _fefferman(counts, args, kwargs, result):
    counts["grid_n"] = result.N
    counts["packets"] = result.n_packets


def _curve(counts, args, kwargs, result):
    counts["scales"] = len(result)


def targets() -> list[Target]:
    """Every wrapped attribute; imported here, after sys.path is set."""
    cli = cli_module()
    perron = importlib.import_module("kakeyalab.perron")
    region = importlib.import_module("kakeyalab.exactgeom.region")
    volume = importlib.import_module("kakeyalab.tubelab.volume")
    grid = importlib.import_module("kakeyalab.spectral.grid")
    fefferman = importlib.import_module("kakeyalab.spectral.fefferman")
    multipliers = importlib.import_module("kakeyalab.spectral.multipliers")
    packets = importlib.import_module("kakeyalab.spectral.packets")
    Region2 = region.Region2

    def curve_name(args, kwargs):
        return "boxdim.region_curve" if isinstance(args[0], Region2) else "boxdim.tube_curve"

    out = [Target(cli, "dispatch", "cli.dispatch")]
    out += [Target(cli, name, "cli.emit")
            for name in ("emit_svg", "tree_to_json", "emit_report",
                         "read_field", "write_field", "sha256_file")]
    out.append(Target(Region2, "to_json", "cli.emit"))
    out += [
        Target(perron, "overlay", "exactgeom.overlay", _overlay),
        Target(region, "overlay", "exactgeom.overlay", _overlay),
        Target(region, "validate_simple_polygon", "exactgeom.validate"),
        Target(perron, "contains_segment", "exactgeom.contains_segment"),
        Target(cli, "build_perron_tree", "perron.build"),
        Target(cli, "assemble_kakeya", "perron.assemble"),
        Target(cli, "direction_coverage", "perron.coverage", _coverage),
        Target(cli, "full_circle_coverage", "perron.coverage", _coverage),
        Target(perron, "covering_segment", "perron.covering_segment"),
        Target(fefferman, "covering_segment", "perron.covering_segment"),
        Target(cli, "generate_family", "tubelab.generate", _family),
        Target(cli, "parallel_lines_family", "tubelab.generate", _family),
        Target(volume.TubeIndex, "__init__", "tubelab.index_build", _index_build),
        Target(volume.TubeIndex, "contains", "tubelab.contains", _contains),
        Target(cli, "union_volume", "tubelab.volume", _volume),
        Target(cli, "essentially_distinct_check", "tubelab.distinct", _distinct),
        Target(cli, "wolff_axiom_check", "tubelab.wolff"),
        Target(cli, "sticky_check", "tubelab.sticky"),
        Target(cli, "heisenberg_neighborhood_volume", "heisenberg.volume", _volume),
        Target(cli, "fefferman_experiment", "spectral.fefferman", _fefferman),
        Target(cli, "apply_multiplier", "spectral.multiplier"),
        Target(cli, "neighborhood_volume_curve", curve_name, _curve),
        Target(cli, "minkowski_estimate", "boxdim.fit"),
        Target(cli, "kakeya_bound_check", "boxdim.fit"),
    ]
    out += [Target(mod, name, "spectral.fft", _fft)
            for mod in (grid, fefferman, multipliers, packets)
            for name in ("dft_forward", "dft_inverse") if name in vars(mod)]
    return out


# (metric, unit, kind, span name, count key); kind is "time" (outermost
# spans' total duration), "self" (total self time), "calls" (number of
# spans), or "sum" or "max" of a count.  Derived metrics follow in
# layer_metrics().
_PLAIN = (
    ("cli.dispatch_self_s", "s", "self", "cli.dispatch", None),
    ("cli.emit_s", "s", "time", "cli.emit", None),
    ("exactgeom.overlay_s", "s", "time", "exactgeom.overlay", None),
    ("exactgeom.overlay_calls", "count", "calls", "exactgeom.overlay", None),
    ("exactgeom.overlay_edges_in", "count", "sum", "exactgeom.overlay", "edges_in"),
    ("exactgeom.overlay_pieces_out", "count", "sum", "exactgeom.overlay", "pieces_out"),
    ("exactgeom.validate_s", "s", "time", "exactgeom.validate", None),
    ("exactgeom.validate_calls", "count", "calls", "exactgeom.validate", None),
    ("exactgeom.contains_segment_s", "s", "time", "exactgeom.contains_segment", None),
    ("exactgeom.contains_segment_calls", "count", "calls", "exactgeom.contains_segment", None),
    ("perron.build_self_s", "s", "self", "perron.build", None),
    ("perron.assemble_self_s", "s", "self", "perron.assemble", None),
    ("perron.coverage_self_s", "s", "self", "perron.coverage", None),
    ("perron.covering_segment_s", "s", "time", "perron.covering_segment", None),
    ("perron.covering_segment_calls", "count", "calls", "perron.covering_segment", None),
    ("perron.directions", "count", "sum", "perron.coverage", "directions"),
    ("tubelab.generate_s", "s", "time", "tubelab.generate", None),
    ("tubelab.tubes", "count", "sum", "tubelab.generate", "tubes"),
    ("tubelab.index_build_s", "s", "time", "tubelab.index_build", None),
    ("tubelab.index_cells", "count", "sum", "tubelab.index_build", "cells"),
    ("tubelab.index_max_bucket", "count", "max", "tubelab.index_build", "max_bucket"),
    ("tubelab.contains_s", "s", "time", "tubelab.contains", None),
    ("tubelab.contains_points", "count", "sum", "tubelab.contains", "points"),
    ("tubelab.distinct_s", "s", "time", "tubelab.distinct", None),
    ("tubelab.distinct_pairs", "count", "sum", "tubelab.distinct", "pairs"),
    ("tubelab.distinct_sampled", "count", "sum", "tubelab.distinct", "sampled"),
    ("tubelab.distinct_flagged", "count", "sum", "tubelab.distinct", "flagged"),
    ("tubelab.wolff_s", "s", "time", "tubelab.wolff", None),
    ("tubelab.sticky_s", "s", "time", "tubelab.sticky", None),
    ("heisenberg.volume_s", "s", "time", "heisenberg.volume", None),
    ("heisenberg.samples", "count", "sum", "heisenberg.volume", "samples"),
    ("spectral.fefferman_self_s", "s", "self", "spectral.fefferman", None),
    ("spectral.fft_s", "s", "time", "spectral.fft", None),
    ("spectral.fft_calls", "count", "calls", "spectral.fft", None),
    ("spectral.fft_bytes_computed", "B", "sum", "spectral.fft", "bytes"),
    ("spectral.grid_n", "count", "max", "spectral.fefferman", "grid_n"),
    ("spectral.packets", "count", "sum", "spectral.fefferman", "packets"),
    ("spectral.multiplier_s", "s", "time", "spectral.multiplier", None),
    ("boxdim.region_curve_s", "s", "time", "boxdim.region_curve", None),
    ("boxdim.tube_curve_s", "s", "time", "boxdim.tube_curve", None),
    ("boxdim.fit_s", "s", "time", "boxdim.fit", None),
)

_DERIVED = (
    ("cli.bytes_out", "B"),
    ("tubelab.index_mean_bucket", "count"),
    ("tubelab.mc_samples_per_s", "1/s"),
    ("tubelab.distinct_flag_ratio", "ratio"),
    ("heisenberg.samples_per_s", "1/s"),
    ("boxdim.scales", "count"),
)

# Metrics that must repeat exactly between two traced runs on one seed.
COUNT_UNITS = ("count", "B", "ratio")

METRIC_UNITS = {name: unit for name, unit, *_ in _PLAIN}
METRIC_UNITS.update(_DERIVED)


def layer_metrics(spans: list[Span], bytes_out: int, step: str | None = None) -> dict[str, float]:
    """Every per-layer metric, over one step's spans or all of them; 0
    for a layer that is never called."""
    selfs = self_times(spans)

    def mine(picked):
        return [s for s in picked if step is None or s.step == step]

    out: dict[str, float] = {}
    for metric, _, kind, name, key in _PLAIN:
        if kind == "time":
            out[metric] = sum(s.duration for s in mine(outermost(spans, name)))
        elif kind == "self":
            out[metric] = sum(t for s, t in zip(spans, selfs)
                              if s.name == name and (step is None or s.step == step))
        elif kind == "calls":
            out[metric] = sum(1 for s in mine(spans) if s.name == name)
        else:
            vals = [s.counts.get(key, 0) for s in mine(spans) if s.name == name]
            out[metric] = max(vals, default=0) if kind == "max" else sum(vals)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in mine(spans) if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    out["cli.bytes_out"] = bytes_out
    out["tubelab.index_mean_bucket"] = ratio(
        total("tubelab.index_build", "entries"), out["tubelab.index_cells"])
    out["tubelab.mc_samples_per_s"] = ratio(
        total("tubelab.volume", "samples"),
        sum(s.duration for s in mine(outermost(spans, "tubelab.volume"))))
    out["tubelab.distinct_flag_ratio"] = ratio(
        out["tubelab.distinct_flagged"], out["tubelab.distinct_sampled"])
    out["heisenberg.samples_per_s"] = ratio(
        out["heisenberg.samples"], out["heisenberg.volume_s"])
    out["boxdim.scales"] = (total("boxdim.region_curve", "scales")
                            + total("boxdim.tube_curve", "scales"))
    return out
