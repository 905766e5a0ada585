"""The three workloads: generated inputs, CLI steps, and output checks.

Every check is independent of the seed: exact values are pinned, Monte
Carlo estimates are compared with references measured once at a higher
sample count (perfbench/reference.py), and fitted dimensions must fall
in fixed bands.  Piece counts and artifact bytes are deliberately not
checked, so a new piece decomposition of the same exact region passes.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# Exact areas as ExactScalar.to_ints quadruples: a + b*sqrt(3) with
# a = a_num/a_den and b = b_num/b_den.
PERRON_M6_AREA = (0, 1, 48187, 529200)
KAKEYA_M6_AREA = (
    0, 1,
    int("1138890804368182809605740027261812382707847839731380625996338373"
        "0288117745442149745580342842264237668242761144986026309826094776"
        "1783666188067175710533665577439835635427786805279658717470033114"
        "8270652055429775547530897"),
    int("4245651500779506765635200598539643461722976403940527211845323155"
        "9503202411110107242874285682825691234881260639269508819265898059"
        "5847950733307076314651010056934690814820986308414978955598444213"
        "7710048608592090873000000"),
)
LATTICE_COUNT_2_7 = 3_397_098_217

# Monte Carlo references from perfbench/reference.py, on seed 2^20.
MC_SIGMAS = 5.0
MC_REFERENCE = {
    # union volume of the 2-D bush at delta = 2^-9, 16M samples
    "bush": (1.5741494322431675, 0.0002074880262646612),
    # union volume of the parallel-lines slab at delta = 1/32, 4M samples
    "slab": (0.06453878018188478, 7.975819678809796e-06),
    # |N_delta H| at delta = 2^-7, 160M samples
    "heisenberg": (6.89281933113737, 0.009229914508046791),
}

# Fefferman L^4 ratio for r = 1/16 on the m=6 tree (no randomness).
FEFFERMAN_RATIO = 0.61833651327784045
FEFFERMAN_RTOL = 1e-6
# Fitted Minkowski dimensions; the fits drop one scale at each end.
DIM_BANDS = {"region": (1.80, 1.91), "tubes": (1.90, 2.00)}
# Honest failures of the parallel-lines family (acceptance criterion 5).
SLAB_MIN_WOLFF_RATIO = 10.0

FIELD_N = 2048
FIELD_PERIOD = 8.0
FIELD_MAGIC = b"KAKFLD01"
FIELD_HEADER = struct.Struct("<8sIId8x")
BR_RADIUS = 2.5
BR_ALPHA = 0.5


class SetupError(RuntimeError):
    """A workload input could not be generated."""


@dataclass(frozen=True)
class Step:
    """One timed CLI call.  `argv(inputs, out, seed)` builds its
    arguments; `check(inputs, out, stdout)` returns a list of problems."""

    metric: str
    argv: Callable[[dict, Path, int], list[str]]
    check: Callable[[dict, Path, str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[object, Path, int], dict]
    steps: tuple[Step, ...]


# ---- shared checks ------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _stat(rows: list[dict], check: str, statistic: str) -> float:
    for row in rows:
        if row["check"] == check and row["statistic"] == statistic:
            return float(row["value"])
    raise KeyError(f"no {check}/{statistic} row")


def _mc_problem(name: str, value: float, se: float) -> list[str]:
    ref, ref_se = MC_REFERENCE[name]
    z = abs(value - ref) / math.hypot(se, ref_se)
    if not z <= MC_SIGMAS:
        return [f"{name} volume {value!r} is {z:.1f} sigma from {ref!r}"]
    return []


def _q3_area(polygons) -> tuple[int, int, int, int]:
    """Shoelace area over Q(sqrt 3) from the region JSON vertex encoding
    (x = a + b sqrt3 as a_num, a_den, b_num, b_den; then y)."""
    a = b = Fraction(0)
    for poly in polygons:
        pts = [tuple(Fraction(v[i], v[i + 1]) for i in (0, 2, 4, 6)) for v in poly]
        for (xa, xb, ya, yb), (xa2, xb2, ya2, yb2) in zip(pts, pts[1:] + pts[:1]):
            a += xa * ya2 + 3 * xb * yb2 - xa2 * ya - 3 * xb2 * yb
            b += xa * yb2 + xb * ya2 - xa2 * yb - xb2 * ya
    a, b = a / 2, b / 2
    return (a.numerator, a.denominator, b.numerator, b.denominator)


def _coverage_problem(stdout: str, n: int) -> list[str]:
    if f"coverage {n}/{n} " not in stdout:
        return [f"coverage is not {n}/{n}"]
    return []


def _nonempty(*paths: Path) -> list[str]:
    return [f"{p.name} missing or empty" for p in paths
            if not p.is_file() or p.stat().st_size == 0]


# ---- exact-tree ---------------------------------------------------------


def _no_inputs(cli, where: Path, seed: int) -> dict:
    return {}


def _check_perron(inp: dict, out: Path, stdout: str) -> list[str]:
    problems = _nonempty(out / "tree.svg") + _coverage_problem(stdout, 721)
    tree = json.loads((out / "tree.json").read_text(encoding="utf-8"))
    if tuple(tree["area"]) != PERRON_M6_AREA:
        problems.append(f"tree area {tree['area']} != {PERRON_M6_AREA}")
    if _q3_area(tree["region"]["polygons"]) != PERRON_M6_AREA:
        problems.append("tree pieces do not add up to the pinned area")
    return problems


def _check_kakeya(inp: dict, out: Path, stdout: str) -> list[str]:
    problems = _nonempty(out / "set.svg") + _coverage_problem(stdout, 1440)
    region = json.loads((out / "set.json").read_text(encoding="utf-8"))
    if _q3_area(region["polygons"]) != KAKEYA_M6_AREA:
        problems.append("assembled pieces do not add up to the pinned area")
    return problems


EXACT_TREE = Workload(
    "exact-tree",
    "exact Q(sqrt3) core only: overlay build, Region2 validation and "
    "contains_segment coverage of the m=6 tree and its 3-copy assembly",
    _no_inputs,
    (
        Step("perron_s",
             lambda inp, out, seed: ["perron", "--m", "6", "--out", str(out / "tree.json"),
                                     "--svg", str(out / "tree.svg"), "--check"],
             _check_perron),
        Step("kakeya_s",
             lambda inp, out, seed: ["kakeya", "--m", "6", "--out", str(out / "set.json"),
                                     "--svg", str(out / "set.svg"), "--check"],
             _check_kakeya),
    ),
)


# ---- tube-families ------------------------------------------------------


def _check_bush(inp: dict, out: Path, stdout: str) -> list[str]:
    rows = _rows(out / "bush.csv")
    problems = _mc_problem("bush", _stat(rows, "volume", "union_volume"),
                           _stat(rows, "volume", "std_error"))
    if any(r["verdict"] == "fail" for r in rows):
        problems.append("bush report has a failing row")
    return problems


def _check_slab(inp: dict, out: Path, stdout: str) -> list[str]:
    rows = _rows(out / "slab.csv")
    problems = _mc_problem("slab", _stat(rows, "volume", "union_volume"),
                           _stat(rows, "volume", "std_error"))
    if not _stat(rows, "distinct", "flagged_pairs") > 0:
        problems.append("parallel lines no longer flag overlapping pairs")
    if not _stat(rows, "wolff", "slab_ratio") >= SLAB_MIN_WOLFF_RATIO:
        problems.append("parallel lines no longer overfill the z=0 slab")
    return problems


TUBE_FAMILIES = Workload(
    "tube-families",
    "numpy tube engine only: one overloaded index bucket (2-D bush) beside "
    "many spread buckets plus pair checks (3-D parallel-lines slab)",
    _no_inputs,
    (
        Step("tubes_bush_s",
             lambda inp, out, seed: ["tubes", "analyze", "--delta", repr(2.0 ** -9),
                                     "--placement", "bush", "--checks", "volume",
                                     "--mc-samples", "2000000", "--seed", str(seed),
                                     "--out", str(out / "bush.csv")],
             _check_bush),
        Step("tubes_slab_s",
             lambda inp, out, seed: ["tubes", "analyze", "--delta", repr(1.0 / 32),
                                     "--placement", "parallel-lines",
                                     "--checks", "volume,distinct,wolff,sticky",
                                     "--mc-samples", "500000", "--seed", str(seed),
                                     "--out", str(out / "slab.csv")],
             _check_slab),
    ),
)


# ---- analysis -----------------------------------------------------------


def write_field(path: Path, data: np.ndarray, period: float) -> None:
    """The CLI's binary field format: 32-byte header, complex128 rows."""
    with open(path, "wb") as fh:
        fh.write(FIELD_HEADER.pack(FIELD_MAGIC, data.ndim, data.shape[0], period))
        fh.write(np.ascontiguousarray(data, dtype="<c16").tobytes())


def read_field(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    magic, dim, n, _ = FIELD_HEADER.unpack_from(raw)
    if magic != FIELD_MAGIC:
        raise ValueError(f"{path.name}: bad field magic")
    return np.frombuffer(raw, dtype="<c16", offset=FIELD_HEADER.size).reshape((n,) * dim)


def _analysis_inputs(cli, where: Path, seed: int) -> dict:
    inputs = {"tree": where / "tree.json", "family": where / "family.json",
              "field": where / "field.bin"}
    rng = np.random.default_rng(seed)
    shape = (FIELD_N, FIELD_N)
    write_field(inputs["field"],
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                FIELD_PERIOD)
    for argv in (["perron", "--m", "6", "--out", str(inputs["tree"])],
                 ["tubes", "gen", "--delta", repr(2.0 ** -8), "--placement", "bush",
                  "--seed", str(seed), "--out", str(inputs["family"])]):
        if cli.dispatch(argv) != 0:
            raise SetupError(f"setup step {argv[0]} failed")
    return inputs


def _check_heisenberg(inp: dict, out: Path, stdout: str) -> list[str]:
    (row,) = _rows(out / "heis.csv")
    problems = _mc_problem("heisenberg", float(row["volume"]), float(row["std_error"]))
    if int(row["count"]) != LATTICE_COUNT_2_7:
        problems.append(f"lattice_count {row['count']} != {LATTICE_COUNT_2_7}")
    return problems


def _check_fefferman(inp: dict, out: Path, stdout: str) -> list[str]:
    (row,) = _rows(out / "feff.csv")
    problems = _nonempty(out / "heat.svg")
    ratio = float(row["ratio"])
    if not math.isclose(ratio, FEFFERMAN_RATIO, rel_tol=FEFFERMAN_RTOL):
        problems.append(f"Fefferman ratio {ratio!r} != {FEFFERMAN_RATIO!r}")
    return problems


def _fitted_dimension(path: Path, ambient: int) -> float:
    """Least-squares log-log fit with one scale trimmed at each end."""
    pts = [(float(r["delta"]), float(r["volume"])) for r in _rows(path)]
    x = np.log([d for d, _ in pts[1:-1]])
    y = np.log([v for _, v in pts[1:-1]])
    slope = np.polyfit(x, y, 1)[0]
    return min(max(ambient - float(slope), 0.0), float(ambient))


def _dimension_check(kind: str, name: str):
    def check(inp: dict, out: Path, stdout: str) -> list[str]:
        dim = _fitted_dimension(out / name, 2)
        lo, hi = DIM_BANDS[kind]
        problems = []
        printed = re.search(r"dimension (\S+) ", stdout)
        if printed is None or abs(float(printed.group(1)) - dim) > 6e-4:
            problems.append(f"printed dimension disagrees with the CSV fit {dim:.4f}")
        if not lo <= dim <= hi:
            problems.append(f"{kind} dimension {dim:.4f} outside [{lo}, {hi}]")
        return problems

    return check


def _check_multiplier(inp: dict, out: Path, stdout: str) -> list[str]:
    src = read_field(inp["field"])
    got = read_field(out / "filtered.bin")
    freqs = np.fft.fftfreq(FIELD_N, d=FIELD_PERIOD / FIELD_N)
    q = (freqs[:, None] / BR_RADIUS) ** 2 + (freqs[None, :] / BR_RADIUS) ** 2
    symbol = np.where(q <= 1.0, np.clip(1.0 - q, 0.0, None) ** BR_ALPHA, 0.0)
    want = np.fft.ifft2(np.fft.fft2(src) * symbol)
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    return [] if err <= 1e-9 else [f"filtered field off by relative {err:.3g}"]


ANALYSIS = Workload(
    "analysis",
    "spectral, Heisenberg, boxdim and field I/O; exact core only to decode "
    "the tree, so exact-core or tube-engine changes should not move it",
    _analysis_inputs,
    (
        Step("heisenberg_s",
             lambda inp, out, seed: ["heisenberg", "--delta", repr(2.0 ** -7),
                                     "--samples", "10000000", "--seed", str(seed),
                                     "--check", "--out", str(out / "heis.csv")],
             _check_heisenberg),
        Step("fefferman_s",
             lambda inp, out, seed: ["fefferman", "--r", repr(1.0 / 16), "--p", "4",
                                     "--tree", str(inp["tree"]),
                                     "--heatmap", str(out / "heat.svg"), "--check",
                                     "--out", str(out / "feff.csv")],
             _check_fefferman),
        Step("dim_region_s",
             lambda inp, out, seed: ["dim", "--in", str(inp["tree"]),
                                     "--deltas", "2^-9..2^-12",
                                     "--out", str(out / "dim_region.csv")],
             _dimension_check("region", "dim_region.csv")),
        Step("dim_tubes_s",
             lambda inp, out, seed: ["dim", "--in", str(inp["family"]),
                                     "--deltas", "2^-5..2^-8",
                                     "--out", str(out / "dim_tubes.csv")],
             _dimension_check("tubes", "dim_tubes.csv")),
        Step("multiplier_s",
             lambda inp, out, seed: ["multiplier", "--kind", "br", "--R", repr(BR_RADIUS),
                                     "--alpha", repr(BR_ALPHA), "--check",
                                     "--in", str(inp["field"]),
                                     "--out", str(out / "filtered.bin")],
             _check_multiplier),
    ),
)

WORKLOADS = {w.name: w for w in (EXACT_TREE, TUBE_FAMILIES, ANALYSIS)}
