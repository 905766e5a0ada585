"""Command line front end: dispatch plus deterministic file emission."""

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
from .main import dispatch, main

__all__ = [
    "CliError",
    "dispatch",
    "emit_report",
    "emit_svg",
    "load_config",
    "main",
    "parse_deltas",
    "read_field",
    "sha256_file",
    "write_field",
]
