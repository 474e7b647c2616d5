"""Correlated heavy-hitters in one pass over two-dimensional tuple streams.

A correlated heavy-hitter query asks: which primary values dominate the
stream, and within the sub-stream of each dominant primary value, which
secondary values dominate there? This package provides a small-space,
single-pass sketch answering that query with one-sided error, a solver that
turns accuracy targets into minimal table sizes, exact multi-pass oracles
for validation, a seeded workload generator, and an evaluation harness.
"""

from .errors import (
    ChhError,
    InconsistentInputError,
    InvalidParameterError,
    MalformedLineError,
    SnapshotFormatError,
    UnsupportedSourceError,
)
from .evaluate import (
    ErrorStats,
    SweepRow,
    primary_error_stats,
    secondary_error_stats,
    secondary_theoretical_max,
    sweep,
    sweep_csv_lines,
    write_sweep_csv,
)
from .mg import MgSummary
from .oracle import (
    ExactChh,
    ExactCounts,
    exact_chh_from_counts,
    exact_chh_multipass,
    exact_chh_naive,
    exact_counts_naive,
    require_replayable,
)
from .params import ChhParams, solve_params, to_fraction
from .sketch import ChhReport, ChhSketch, PrimaryEntry, ReportedPrimary
from .snapshot import load_sketch, save_sketch, sketch_from_bytes, sketch_to_bytes
from .tsv import TsvTupleSource, write_tuples
from .workload import ZipfStream, ZipfWorkloadSpec, generate_zipf, zipf_probabilities

__version__ = "0.1.0"

__all__ = [
    "ChhError",
    "ChhParams",
    "ChhReport",
    "ChhSketch",
    "ErrorStats",
    "ExactChh",
    "ExactCounts",
    "InconsistentInputError",
    "InvalidParameterError",
    "MalformedLineError",
    "MgSummary",
    "PrimaryEntry",
    "ReportedPrimary",
    "SnapshotFormatError",
    "SweepRow",
    "TsvTupleSource",
    "UnsupportedSourceError",
    "ZipfStream",
    "ZipfWorkloadSpec",
    "exact_chh_from_counts",
    "exact_chh_multipass",
    "exact_chh_naive",
    "exact_counts_naive",
    "generate_zipf",
    "load_sketch",
    "primary_error_stats",
    "require_replayable",
    "save_sketch",
    "secondary_error_stats",
    "secondary_theoretical_max",
    "sketch_from_bytes",
    "sketch_to_bytes",
    "solve_params",
    "sweep",
    "sweep_csv_lines",
    "to_fraction",
    "write_sweep_csv",
    "write_tuples",
    "zipf_probabilities",
]
