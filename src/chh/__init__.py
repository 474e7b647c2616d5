"""Correlated heavy-hitters in one pass over two-dimensional tuple streams.

A correlated heavy-hitter query asks: which primary values dominate the
stream, and within the sub-stream of each dominant primary value, which
secondary values dominate there? This package provides a small-space,
single-pass sketch answering that query with one-sided error, a solver that
turns accuracy targets into minimal table sizes, exact multi-pass oracles
for validation, a seeded workload generator, and an evaluation harness.

``import chh`` loads no submodule: each name below is imported from its
module on first use (PEP 562), so a command pays only for the code it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "ChhError",
            "InconsistentInputError",
            "InvalidParameterError",
            "MalformedLineError",
            "SnapshotFormatError",
            "UnsupportedSourceError",
        ),
        "evaluate": (
            "ErrorStats",
            "SweepRow",
            "primary_error_stats",
            "secondary_error_stats",
            "secondary_theoretical_max",
            "sweep",
            "sweep_csv_lines",
            "write_sweep_csv",
        ),
        "mg": ("MgSummary",),
        "oracle": (
            "ExactChh",
            "ExactCounts",
            "exact_chh_from_counts",
            "exact_chh_multipass",
            "exact_chh_naive",
            "exact_counts_naive",
            "require_replayable",
        ),
        "params": ("ChhParams", "solve_params", "to_fraction"),
        "sketch": ("ChhReport", "ChhSketch", "PrimaryEntry", "ReportedPrimary"),
        "snapshot": ("load_sketch", "save_sketch", "sketch_from_bytes", "sketch_to_bytes"),
        "tsv": ("TsvTupleSource", "write_tuples"),
        "workload": ("ZipfStream", "ZipfWorkloadSpec", "generate_zipf", "zipf_probabilities"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
