"""Palm-print ROI extraction and texture-matching toolkit."""

from .edges import binarize, busyness, count_connected_lines, edge_mask, sobel_magnitude
from .features import extract_features, subregion_grid
from .image import (
    PgmFormatError,
    RoiRect,
    crop,
    full_rect,
    histogram,
    histogram_peak,
    load_pgm,
    modality,
    save_pgm,
)
from .kernels import backend_name
from .matcher import (
    EvaluationReport,
    Template,
    TemplateDB,
    accuracy,
    distance,
    enroll,
    identify,
    load_db,
    save_db,
    verify,
)
from .roi import (
    EmptyRoiError,
    KeepRange,
    RoiParams,
    StripProfile,
    common_roi,
    extract_roi,
    keep_ranges,
    strip_partition,
    strip_profile,
    trim_strips,
)
from .synth import PalmModel, SampleJitter, generate_corpus, generate_palm, read_manifest

__version__ = "0.1.0"

__all__ = [
    "EmptyRoiError",
    "EvaluationReport",
    "KeepRange",
    "PalmModel",
    "PgmFormatError",
    "RoiParams",
    "RoiRect",
    "SampleJitter",
    "StripProfile",
    "Template",
    "TemplateDB",
    "accuracy",
    "backend_name",
    "binarize",
    "busyness",
    "common_roi",
    "count_connected_lines",
    "crop",
    "distance",
    "edge_mask",
    "enroll",
    "extract_features",
    "extract_roi",
    "full_rect",
    "generate_corpus",
    "generate_palm",
    "histogram",
    "histogram_peak",
    "identify",
    "keep_ranges",
    "load_db",
    "load_pgm",
    "modality",
    "read_manifest",
    "save_db",
    "save_pgm",
    "sobel_magnitude",
    "strip_partition",
    "strip_profile",
    "subregion_grid",
    "trim_strips",
    "verify",
]
