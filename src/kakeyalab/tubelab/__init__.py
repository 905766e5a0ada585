"""Delta-tube families: generation, union volume, structural checks.

The quantitative side of the construction: direction nets, tube
placements (bush, random anchors, tracked tree segments), union
volume estimates, and the occupancy checks that separate genuinely
spread-out families from degenerate ones.
"""

from .checks import (
    DistinctReport,
    FattenResult,
    PairOverlap,
    PrismCheck,
    StickyReport,
    StickyScale,
    WolffReport,
    essentially_distinct_check,
    fatten,
    sticky_check,
    wolff_axiom_check,
)
from .core import (
    Prism,
    TubeError,
    TubeFamily,
    VolumeEstimate,
    family_bbox,
    family_from_json,
    family_to_json,
    family_total_volume,
)
from .generate import (
    generate_directions,
    generate_family,
    parallel_lines_family,
)
from .volume import TubeIndex, kakeya_ratio, union_volume

__all__ = [
    "TubeFamily",
    "Prism",
    "VolumeEstimate",
    "TubeError",
    "family_total_volume",
    "family_bbox",
    "family_to_json",
    "family_from_json",
    "generate_directions",
    "generate_family",
    "parallel_lines_family",
    "union_volume",
    "kakeya_ratio",
    "TubeIndex",
    "essentially_distinct_check",
    "DistinctReport",
    "PairOverlap",
    "wolff_axiom_check",
    "WolffReport",
    "PrismCheck",
    "fatten",
    "FattenResult",
    "sticky_check",
    "StickyReport",
    "StickyScale",
]
