"""Measurement and reporting: the evaluation-section toolkit.

Box-plot stats and CDFs (Figs. 3/10), coverage aggregation (Figs. 8/9,
Table II), the fault-free overhead model (Fig. 7), and paper-vs-measured
table rendering.
"""

from repro.analysis.coverage import (
    CoverageBreakdown,
    coverage_by_benchmark,
    coverage_by_fault_class,
    coverage_by_technique,
    long_latency_breakdown,
    undetected_breakdown,
)
from repro.analysis.journals import (
    dataset_from_journal,
    journal_progress,
    records_from_journal,
    sample_journal_progress,
)
from repro.analysis.latency import LatencyStudy
from repro.analysis.overhead import OverheadStudy, PerfOverheadModel
from repro.analysis.plots import ascii_boxplot, ascii_cdf, ascii_stacked_bars
from repro.analysis.recovery_report import RecoverySummary, summarize_recovery
from repro.analysis.report import ComparisonRow, ComparisonTable, format_percent
from repro.analysis.sensitivity import (
    SensitivityRow,
    bit_band_sensitivity,
    register_sensitivity,
)
from repro.analysis.stats import BoxStats, Cdf

__all__ = [
    "BoxStats",
    "Cdf",
    "ComparisonRow",
    "ComparisonTable",
    "CoverageBreakdown",
    "LatencyStudy",
    "OverheadStudy",
    "PerfOverheadModel",
    "RecoverySummary",
    "SensitivityRow",
    "ascii_boxplot",
    "ascii_cdf",
    "ascii_stacked_bars",
    "coverage_by_benchmark",
    "coverage_by_fault_class",
    "coverage_by_technique",
    "dataset_from_journal",
    "format_percent",
    "bit_band_sensitivity",
    "journal_progress",
    "long_latency_breakdown",
    "records_from_journal",
    "register_sensitivity",
    "sample_journal_progress",
    "summarize_recovery",
    "undetected_breakdown",
]
