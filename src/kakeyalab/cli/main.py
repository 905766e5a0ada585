"""Subcommand dispatch for the kakeyalab tool.

One binary, seven subcommands (perron, kakeya, tubes, heisenberg,
fefferman, multiplier, dim) sharing config, manifest, and emission
machinery.  Exit codes: 0 success, 2 validation error or a file that
cannot be read or written, 3 failed acceptance check under --check.
Config files are key=value lines mirroring the flags; explicit flags
override file values.  The CLI layer itself is single threaded;
subcommands parallelize internally under the KAKEYA_LAB_THREADS cap.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import kakeyalab

from ..boxdim import kakeya_bound_check, minkowski_estimate, neighborhood_volume_curve
from ..exactgeom.region import Region2
from ..heisenberg import (
    complex_tube_volume,
    heisenberg_neighborhood_volume,
    lattice_count,
)
from ..perron import (
    PerronSpec,
    assemble_kakeya,
    build_perron_tree,
    direction_coverage,
    full_circle_coverage,
    tree_from_json,
    tree_to_json,
)
from ..rng import admit_samples
from ..spectral import (
    MultiplierSpec,
    apply_multiplier,
    fefferman_experiment,
    lp_norm,
)
from ..tubelab import (
    essentially_distinct_check,
    family_from_json,
    family_to_json,
    family_total_volume,
    generate_family,
    kakeya_ratio,
    parallel_lines_family,
    sticky_check,
    union_volume,
    wolff_axiom_check,
)
from .io import (
    CliError,
    emit_report,
    emit_svg,
    load_config,
    parse_deltas,
    read_field,
    sha256_file,
    write_field,
)

__all__ = ["dispatch", "main"]


@dataclass
class RunResult:
    """What a handler hands back for manifest assembly."""

    parameters: dict
    seeds: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    check_passed: bool | None = None
    nan_cells: int = 0


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _split_names(text: str, allowed: tuple[str, ...]) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    for name in names:
        if name not in allowed:
            raise CliError(f"unknown check {name!r}; allowed: {', '.join(allowed)}")
    if not names:
        raise CliError("empty check list")
    return names


def _build_tree(m: int, schedule: str | None):
    if schedule is None:
        spec = PerronSpec.default(m)
    else:
        try:
            shifts = tuple(Fraction(part.strip()) for part in schedule.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"bad schedule {schedule!r}") from exc
        spec = PerronSpec(m, shifts)
    return build_perron_tree(spec)


def _cmd_perron(args) -> RunResult:
    tree = _build_tree(args.m, args.schedule)
    _write_text(args.out, tree_to_json(tree))
    outputs = [args.out]
    print(f"tree with {len(tree.region.polygons)} polygons -> {args.out}")
    if args.svg:
        _write_text(args.svg, emit_svg(tree.region))
        outputs.append(args.svg)
    check = None
    if args.check:
        report = direction_coverage(tree, 721)
        check = report.fraction == 1.0
        print(f"coverage {report.covered}/{report.n_dirs} sector directions")
    return RunResult(
        parameters={"m": args.m, "schedule": args.schedule},
        outputs=outputs, check_passed=check)


def _cmd_kakeya(args) -> RunResult:
    tree = _build_tree(args.m, args.schedule)
    region = assemble_kakeya(tree)
    _write_text(args.out, region.to_json())
    outputs = [args.out]
    print(f"assembled set with {len(region.polygons)} polygons -> {args.out}")
    if args.svg:
        _write_text(args.svg, emit_svg(region))
        outputs.append(args.svg)
    check = None
    if args.check:
        report = full_circle_coverage(tree, 1440)
        check = report.fraction == 1.0
        print(f"coverage {report.covered}/{report.n_dirs} full-circle directions")
    return RunResult(
        parameters={"m": args.m, "schedule": args.schedule},
        outputs=outputs, check_passed=check)


_TUBE_CHECKS = ("volume", "distinct", "wolff", "sticky")
_TUBE_SCHEMA = ("check", "scale", "statistic", "value", "threshold", "verdict")


def _tube_family(args):
    if args.placement == "parallel-lines":
        return parallel_lines_family(args.delta)
    return generate_family(args.delta, args.dim, args.placement, seed=args.seed)


def _analyze_rows(fam, args) -> list[tuple]:
    rows: list[tuple] = []
    for name in _split_names(args.checks, _TUBE_CHECKS):
        if name == "volume":
            est = union_volume(fam, method=args.method,
                               samples=args.mc_samples,
                               resolution=args.grid_res, seed=args.seed)
            ratio = kakeya_ratio(fam, est)
            # MC noise can push the union estimate past the exact sum
            slack = 3.0 * est.std_error / family_total_volume(fam)
            rows.append(("volume", fam.delta, "union_volume",
                         est.value, 0.0, "info"))
            rows.append(("volume", fam.delta, "std_error",
                         est.std_error, 0.01 * est.value, "info"))
            rows.append(("volume", fam.delta, "kakeya_ratio", ratio, 1.0,
                         "pass" if ratio <= 1.0 + slack else "fail"))
        elif name == "distinct":
            rep = essentially_distinct_check(fam, seed=args.seed)
            rows.append(("distinct", fam.delta, "flagged_pairs",
                         len(rep.flagged), 0.0,
                         "pass" if rep.ok else "fail"))
        elif name == "wolff":
            rep = wolff_axiom_check(fam, seed=args.seed)
            rows.append(("wolff", fam.delta, "max_prism_ratio",
                         rep.max_ratio, 1.0,
                         "pass" if rep.ok else "fail"))
            rows.append(("wolff", fam.delta, "slab_ratio",
                         rep.slab.ratio, 1.0, "info"))
        else:
            rep = sticky_check(fam)
            for sc in rep.scales:
                rows.append(("sticky", sc.rho, "min_norm", sc.min_norm,
                             1.0 / rep.c_bound,
                             "pass" if sc.ok else "fail"))
                rows.append(("sticky", sc.rho, "max_norm", sc.max_norm,
                             rep.c_bound,
                             "pass" if sc.ok else "fail"))
    return rows


def _cmd_tubes(args) -> RunResult:
    if args.mode == "analyze" and args.method == "monte-carlo":
        admit_samples(args.mc_samples)
    fam = _tube_family(args)
    params = {"mode": args.mode, "dim": fam.dim, "delta": args.delta,
              "placement": args.placement, "checks": args.checks,
              "method": args.method, "mc_samples": args.mc_samples,
              "grid_res": args.grid_res}
    if args.mode == "gen":
        _write_text(args.out, family_to_json(fam))
        print(f"{len(fam)} tubes ({fam.placement_tag}) -> {args.out}")
        return RunResult(parameters=params, seeds={"seed": args.seed},
                         outputs=[args.out],
                         check_passed=True if args.check else None)
    rows = _analyze_rows(fam, args)
    text, nans = emit_report(rows, _TUBE_SCHEMA)
    _write_text(args.out, text)
    verdicts = [row[-1] for row in rows]
    print(f"{len(rows)} report rows ({verdicts.count('fail')} fail) -> {args.out}")
    check = None
    if args.check:
        check = "fail" not in verdicts
    return RunResult(parameters=params, seeds={"seed": args.seed},
                     outputs=[args.out], check_passed=check, nan_cells=nans)


_HEIS_SCHEMA = ("delta", "volume", "std_error", "sum_tube_vol", "count")


def _cmd_heisenberg(args) -> RunResult:
    count = lattice_count(args.delta)
    est = heisenberg_neighborhood_volume(args.delta, args.samples,
                                         seed=args.seed)
    sum_tube = count * complex_tube_volume(args.delta)
    text, nans = emit_report(
        [(args.delta, est.value, est.std_error, sum_tube, count)],
        _HEIS_SCHEMA)
    _write_text(args.out, text)
    print(f"|N_delta H| ~ {est.value:.4g} from {count} tubes -> {args.out}")
    check = None
    if args.check:
        check = est.std_error < 0.01 * est.value
    return RunResult(
        parameters={"delta": args.delta, "samples": args.samples},
        seeds={"seed": args.seed}, outputs=[args.out],
        check_passed=check, nan_cells=nans)


_FEFF_SCHEMA = ("r", "p", "N", "L", "n_packets",
                "input_norm", "output_norm", "ratio")


def _cmd_fefferman(args) -> RunResult:
    if args.tree:
        with open(args.tree, "r", encoding="utf-8") as fh:
            tree = tree_from_json(fh.read())
    else:
        tree = build_perron_tree(PerronSpec.default(6))
    report = fefferman_experiment(tree, args.r, args.p,
                                  N=args.grid, L=args.period)
    text, nans = emit_report(
        [(report.r, report.p, report.N, report.L, report.n_packets,
          report.input_norm, report.output_norm, report.ratio)],
        _FEFF_SCHEMA)
    _write_text(args.out, text)
    outputs = [args.out]
    print(f"{report.n_packets} packets, L^{args.p:g} ratio "
          f"{report.ratio:.4f} -> {args.out}")
    if args.heatmap:
        _write_text(args.heatmap, emit_svg(report.heatmap))
        outputs.append(args.heatmap)
    check = None
    if args.check:
        if args.p == 2.0:
            check = report.ratio <= 1.0 + 1e-9
        else:
            check = 0.0 < report.ratio < 1.0
    return RunResult(
        parameters={"r": args.r, "p": args.p, "grid": report.N,
                    "period": report.L, "tree": args.tree},
        outputs=outputs, check_passed=check, nan_cells=nans)


def _cmd_multiplier(args) -> RunResult:
    if args.kind == "ball":
        spec = MultiplierSpec.ball(args.R)
    elif args.kind == "square":
        spec = MultiplierSpec.square(args.R)
    else:
        spec = MultiplierSpec.bochner_riesz(args.R, args.alpha)
    field_in = read_field(args.infile)
    field_out = apply_multiplier(field_in, spec)
    write_field(args.out, field_out)
    print(f"{args.kind} multiplier at R={args.R:g} -> {args.out}")
    check = None
    if args.check:
        check = lp_norm(field_out, 2.0) <= lp_norm(field_in, 2.0) * (1 + 1e-9)
    return RunResult(
        parameters={"kind": args.kind, "R": args.R, "alpha": args.alpha,
                    "in": args.infile},
        outputs=[args.out], check_passed=check)


_DIM_SCHEMA = ("delta", "volume", "ratio")


def _load_dim_input(path: str):
    if path.endswith(".csv"):
        try:
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
        return pts
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
        if "tubes" in obj:
            return family_from_json(text)
        if "schedule" in obj:
            return tree_from_json(text).region
        return Region2.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"{path}: not a region, tree, tube family, or csv: {exc}") from exc


def _cmd_dim(args) -> RunResult:
    shape = _load_dim_input(args.infile)
    if isinstance(shape, Region2):
        ambient = 2
    elif isinstance(shape, np.ndarray):
        ambient = shape.shape[1]
    else:
        ambient = shape.dim
    deltas = parse_deltas(args.deltas)
    curve = neighborhood_volume_curve(shape, deltas)
    est = minkowski_estimate(curve, ambient)
    bound = kakeya_bound_check(curve, args.epsilon)
    rows = [(d, v, v / d ** args.epsilon)
            for d, v in zip(curve.deltas, curve.volumes)]
    text, nans = emit_report(rows, _DIM_SCHEMA)
    _write_text(args.out, text)
    lo, hi = est.delta_range
    slopes = ", ".join(f"{s:.3f}" for s in est.local_slopes)
    print(f"dimension {est.dimension:.3f} over deltas [{lo:g}, {hi:g}], "
          f"+- {est.uncertainty:.3f} (local slopes {slopes}), "
          f"c_eps {bound.c_epsilon:.3f} -> {args.out}")
    check = None
    if args.check:
        check = bound.consistent
    return RunResult(
        parameters={"in": args.infile, "deltas": args.deltas,
                    "epsilon": args.epsilon},
        outputs=[args.out], check_passed=check, nan_cells=nans)


# Each subcommand: (help, ((flag, add_argument keywords), ...), handler).
# "required" is checked after the --config fold, not by argparse.
_SUBCOMMANDS = {
    "perron": (
        "build one shifted Perron tree and write it as JSON/SVG",
        (
            ("--m", dict(type=int, required=True, help="splitting depth")),
            ("--schedule", dict(help="comma list of shift fractions")),
            ("--out", dict(required=True, help="tree JSON path")),
            ("--svg", dict(help="optional region figure")),
        ),
        _cmd_perron,
    ),
    "kakeya": (
        "assemble three rotated trees into an all-directions set",
        (
            ("--m", dict(type=int, required=True, help="splitting depth per tree")),
            ("--schedule", dict(help="comma list of shift fractions")),
            ("--out", dict(required=True, help="region JSON path")),
            ("--svg", dict(help="optional region figure")),
        ),
        _cmd_kakeya,
    ),
    "tubes": (
        "generate a tube family or run axiom checks on one",
        (
            ("mode", dict(choices=("gen", "analyze"),
                          help="gen writes family JSON, analyze writes a CSV report")),
            ("--dim", dict(type=int, default=2, help="ambient dimension")),
            ("--delta", dict(type=float, required=True, help="tube width")),
            ("--placement", dict(default="bush",
                                 choices=("bush", "random", "perron-base", "parallel-lines"),
                                 help="anchor rule")),
            ("--seed", dict(type=int, default=0, help="rng seed")),
            ("--checks", dict(default="volume,distinct,sticky",
                              help="comma list from volume,distinct,wolff,sticky")),
            ("--method", dict(default="monte-carlo", choices=("monte-carlo", "grid"),
                              help="volume estimator")),
            ("--mc-samples", dict(type=int, default=1_000_000,
                                  help="monte carlo sample count")),
            ("--grid-res", dict(type=int, default=256, help="grid cells per axis")),
            ("--out", dict(required=True, help="family JSON or report CSV")),
        ),
        _cmd_tubes,
    ),
    "heisenberg": (
        "measure the delta-neighborhood of the Heisenberg surface",
        (
            ("--delta", dict(type=float, required=True, help="tube width")),
            ("--samples", dict(type=int, default=1_000_000,
                               help="monte carlo sample count")),
            ("--seed", dict(type=int, default=0, help="rng seed")),
            ("--out", dict(required=True, help="report CSV path")),
        ),
        _cmd_heisenberg,
    ),
    "fefferman": (
        "run the wave-packet pile-up experiment at eccentricity r",
        (
            ("--r", dict(type=float, required=True, help="packet angular width")),
            ("--p", dict(type=float, default=2.0, help="Lebesgue exponent")),
            ("--grid", dict(type=int, help="samples per axis (default: minimal)")),
            ("--period", dict(type=float, help="torus period (default: minimal)")),
            ("--tree", dict(help="tree JSON for directions (default m=6)")),
            ("--out", dict(required=True, help="report CSV path")),
            ("--heatmap", dict(help="optional |Sf| figure")),
        ),
        _cmd_fefferman,
    ),
    "multiplier": (
        "apply a Fourier multiplier to a stored field",
        (
            ("--kind", dict(required=True, choices=("ball", "square", "br"),
                            help="symbol family")),
            ("--R", dict(type=float, required=True, help="cutoff radius")),
            ("--alpha", dict(type=float, default=0.0, help="Bochner-Riesz order")),
            # "in" is a keyword, so the flag lands on args.infile
            ("--in", dict(dest="infile", required=True, help="input field file")),
            ("--out", dict(required=True, help="output field file")),
        ),
        _cmd_multiplier,
    ),
    "dim": (
        "estimate Minkowski dimension from neighborhood volumes",
        (
            ("--in", dict(dest="infile", required=True,
                          help="region JSON, tube family JSON, or points CSV")),
            ("--deltas", dict(required=True,
                              help='scales, "2^-3..2^-9" or comma floats')),
            ("--epsilon", dict(type=float, default=0.5,
                               help="exponent for the lower-bound ratio")),
            ("--out", dict(required=True, help="report CSV path")),
        ),
        _cmd_dim,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakeyalab",
        description="Kakeya-set constructions and measurements.")
    parser.add_argument("--version", action="version",
                        version=f"kakeyalab {kakeyalab.__version__}")
    subs = parser.add_subparsers(dest="cmd", required=True, metavar="subcommand")
    for name, (help_text, argspec, _) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text, description=help_text)
        for flag, kwargs in argspec:
            sub.add_argument(flag, **{k: v for k, v in kwargs.items() if k != "required"})
        sub.add_argument("--config", default=None,
                         help="key=value file; flags override it")
        sub.add_argument("--check", action="store_true",
                         help="exit 3 unless the acceptance assertion holds")
    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; with --config, parse again with the file's lines as
    --key=value flags right after the subcommand, so explicit flags win."""
    args = parser.parse_args(argv)
    options = {flag[2:].replace("-", "_"): (flag, kwargs)
               for flag, kwargs in _SUBCOMMANDS[args.cmd][1] if flag.startswith("--")}
    if args.config:
        raw = load_config(args.config, set(options))
        at = argv.index(args.cmd) + 1
        args = parser.parse_args(
            argv[:at] + [f"{options[k][0]}={v}" for k, v in raw.items()] + argv[at:])
    for key, (flag, kwargs) in options.items():
        if kwargs.get("required") and getattr(args, kwargs.get("dest", key)) is None:
            raise CliError(f"missing required option {flag}")
    return args


def dispatch(argv) -> int:
    try:
        args = _parse(build_parser(), list(argv))
        started = time.perf_counter()
        result = _SUBCOMMANDS[args.cmd][2](args)
    except SystemExit as exc:  # argparse's usage errors, --help and --version
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = {
        "subcommand": args.cmd,
        "parameters": result.parameters,
        "seeds": result.seeds,
        "tool_version": kakeyalab.__version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": {path: sha256_file(path) for path in result.outputs},
        "flags": {"check": bool(args.check), "config": args.config,
                  "nan_cells": result.nan_cells},
    }
    _write_text(result.outputs[0] + ".manifest.json",
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if args.check and not result.check_passed:
        print("acceptance check failed", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)
