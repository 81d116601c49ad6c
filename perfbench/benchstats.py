"""Small, pure helpers: percentile choice, metric names, failure tally."""

from __future__ import annotations

import math
import re
import statistics
from collections.abc import Iterable, Sequence

__all__ = [
    "METRIC_NAME",
    "check_metric_name",
    "median",
    "percentile",
    "tail_percentile",
    "tally",
]

#: Metric names: a leading letter or digit, then letters, digits, ``_.-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: use [A-Za-z0-9_.-], at most 64")
    return name


def tail_percentile(n: int, *, beyond: int = 10) -> float | None:
    """The highest candidate percentile with at least ``beyond`` samples above it.

    ``None`` when even the lowest candidate has too few samples beyond it;
    report the median alone then.
    """
    for p in TAIL_CANDIDATES:
        if math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= beyond:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def tally(outcomes: Iterable[tuple[int, int, bool]]) -> tuple[int, int]:
    """Sum ``(requested, completed, ok)`` per invocation into (attempted, failed).

    A failed invocation (nonzero exit or a failed output check) counts every
    item it was asked for as failed, however many it reported; a clean one
    counts only the items it did not deliver.
    """
    attempted = failed = 0
    for requested, completed, ok in outcomes:
        attempted += requested
        failed += requested - min(completed, requested) if ok else requested
    return attempted, failed
