"""Deterministic artifact emission: CSV reports, SVG figures, binary
fields, file digests, and config files.

Everything here is a pure function of its inputs so reruns produce
byte-identical output; wall time and digests live only in the manifest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import struct

import numpy as np

from ..exactgeom.region import Region2
from ..spectral import GridField, SpectralError
from ..spectral.grid import check_samples

__all__ = [
    "CliError",
    "emit_report",
    "emit_svg",
    "load_config",
    "parse_deltas",
    "read_field",
    "sha256_file",
    "write_field",
]

_FIELD_MAGIC = b"KAKFLD01"
_HEADER = struct.Struct("<8sIId8x")


class CliError(ValueError):
    """Input validation failure; dispatch maps it to exit code 2."""


def write_field(path: str, field: GridField) -> None:
    """Binary field file: 32-byte header then row-major complex data.

    Header layout, little endian: 8-byte magic, uint32 dim, uint32 N,
    float64 period, 8 reserved bytes.  Samples follow as interleaved
    re/im float64 pairs.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_FIELD_MAGIC, field.dim, field.N, field.L))
        fh.write(np.ascontiguousarray(field.data, dtype="<c16"))  # its buffer, not a copy


def read_field(path: str) -> GridField:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CliError(f"{path}: truncated field header")
        magic, dim, n, period = _HEADER.unpack(head)
        if magic != _FIELD_MAGIC:
            raise CliError(f"{path}: not a field file (bad magic)")
        # GridField's own rules, checked before n ** dim is formed
        if dim not in (1, 2):
            raise CliError(f"{path}: dim must be 1 or 2, got {dim}")
        try:
            check_samples(n)
        except SpectralError as exc:
            raise CliError(f"{path}: {exc}") from exc
        want = 16 * n ** dim
        found = os.fstat(fh.fileno()).st_size - _HEADER.size
        if found != want:
            raise CliError(f"{path}: expected {want} data bytes, found {found}")
        data = np.empty((n,) * dim, dtype="<c16")
        if fh.readinto(data) != want:
            raise CliError(f"{path}: expected {want} data bytes")
    try:
        return GridField(dim, n, period, data)
    except SpectralError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return "%.17g" % v


def emit_report(rows, schema) -> tuple[str, int]:
    """Render rows as RFC-4180 CSV text with LF endings.

    Floats carry 17 significant digits; NaN cells print as "nan" and
    are tallied in the returned count so the manifest can flag them.
    """
    schema = list(schema)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    nan_cells = 0
    for row in rows:
        row = list(row)
        if len(row) != len(schema):
            raise CliError(
                f"row has {len(row)} cells, schema declares {len(schema)}")
        cells = [_cell(v) for v in row]
        nan_cells += cells.count("nan")
        writer.writerow(cells)
    return buf.getvalue(), nan_cells


def _fmt(x: float) -> str:
    return "%.6f" % x


def _svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _region_svg(region: Region2) -> str:
    """Polygons as filled paths, one per normalized polygon.

    viewBox maps the region's bounding box (inflated 2%) to user units
    at scale 100/unit; the y axis is flipped so up is up.
    """
    polys = region.floats()
    if polys:
        xs = [x for poly in polys for x, _ in poly]
        ys = [y for poly in polys for _, y in poly]
        lox, hix, loy, hiy = min(xs), max(xs), min(ys), max(ys)
    else:
        lox, hix, loy, hiy = 0.0, 1.0, 0.0, 1.0
    padx = 0.02 * max(hix - lox, 1e-9)
    pady = 0.02 * max(hiy - loy, 1e-9)
    lox, hix, loy, hiy = lox - padx, hix + padx, loy - pady, hiy + pady
    scale = 100.0
    body = ['<g fill="#4878a8" fill-opacity="0.85" stroke="#123" '
            'stroke-width="0.15">']
    for poly in polys:
        parts = []
        for k, (x, y) in enumerate(poly):
            cmd = "M" if k == 0 else "L"
            parts.append(
                f"{cmd}{_fmt((x - lox) * scale)},{_fmt((hiy - y) * scale)}")
        body.append(f'<path d="{" ".join(parts)} Z"/>')
    body.append("</g>")
    return _svg_document((hix - lox) * scale, (hiy - loy) * scale, body)


def _heatmap_svg(values: np.ndarray) -> str:
    """Cell grid shaded by magnitude, row-major, origin bottom left.

    viewBox covers the array as unit cells: column i spans x in [i,i+1],
    row j spans y from the top edge downward at height (rows - 1 - j).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise CliError("heatmap expects a 2d array")
    vmax = float(arr.max()) if arr.size else 0.0
    nx, ny = arr.shape
    body = ['<g stroke="none">',
            f'<rect width="{nx}" height="{ny}" fill="#ffffff"/>']
    if vmax > 0:
        for i in range(nx):
            col = arr[i]
            for j in range(ny):
                level = col[j] / vmax
                if level <= 0:
                    continue
                body.append(
                    f'<rect x="{i}" y="{ny - 1 - j}" width="1" height="1" '
                    f'fill="#13305a" fill-opacity="{"%.4f" % level}"/>')
    body.append("</g>")
    return _svg_document(float(nx), float(ny), body)


def emit_svg(obj) -> str:
    """Standalone SVG for a Region2 (polygon paths) or 2d array (heatmap)."""
    if isinstance(obj, Region2):
        return _region_svg(obj)
    return _heatmap_svg(obj)


def parse_deltas(text: str) -> list[float]:
    """Decreasing scale list, either "2^-3..2^-9" or comma floats."""
    text = text.strip()
    if ".." in text:
        try:
            lo_s, hi_s = text.split("..")
            a = _parse_dyadic(lo_s)
            b = _parse_dyadic(hi_s)
        except ValueError as exc:
            raise CliError(f"bad deltas range {text!r}: {exc}") from exc
        if b < a:
            raise CliError(f"range {text!r} must go from coarse to fine")
        return [2.0 ** -k for k in range(a, b + 1)]
    try:
        out = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"bad deltas list {text!r}") from exc
    if not out:
        raise CliError("empty deltas list")
    return out


def _parse_dyadic(part: str) -> int:
    part = part.strip()
    if not part.startswith("2^-"):
        raise ValueError(f"{part!r} is not of the form 2^-k")
    return int(part[3:])


def load_config(path: str, known: set[str]) -> dict[str, str]:
    """key=value file mirroring the subcommand's flags.

    Blank lines and #-comments are skipped; keys outside the known
    flag set are rejected rather than ignored.
    """
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
