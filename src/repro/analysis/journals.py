"""Report campaign results and training samples from engine journals.

The engine's journal (:mod:`repro.engine.journal`) is the durable artifact a
long campaign leaves behind — including one that is still running or was
killed.  This module reads journals from the *analysis* side: recover the
record or sample sequence for reporting, and summarize in-flight progress
without touching the engine.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.engine.journal import JournalState, SampleJournal, read_state
from repro.errors import JournalError
from repro.faults.outcomes import TrialRecord
from repro.ml.dataset import Dataset

__all__ = [
    "dataset_from_journal",
    "journal_progress",
    "records_from_journal",
    "sample_journal_progress",
]


def _by_index(state: JournalState, *, partial: bool) -> list:
    """A journal's items in index order; ``partial`` also admits items of
    shards that never reached their completion marker."""
    by_index = {}
    sources = list(state.completed.values())
    if partial:
        sources.extend(state.partial.values())
    for items in sources:
        for index, item in items:
            by_index[index] = item
    return [item for _, item in sorted(by_index.items())]


def records_from_journal(path: str | Path) -> tuple[TrialRecord, ...]:
    """Recover trial records from a journal, in serial (trial-index) order.

    Trials of shards that never reached their completion marker are included
    too, so a campaign that is still running (or died) can be peeked at.
    The result of a *finished* campaign equals the serial campaign's record
    tuple.
    """
    state = read_state(path)
    if state is None:
        raise JournalError(f"{path}: no journal found")
    return tuple(_by_index(state, partial=True))


def dataset_from_journal(path: str | Path) -> Dataset:
    """Rebuild a labeled dataset from a training sample journal.

    The analysis-side counterpart of engine-backed
    :func:`~repro.xentry.training.collect_dataset`: samples are ordered by
    global run index, so a journal of a *finished* collection reconstructs
    exactly the dataset the collection returned.  Only durably completed
    shards count — a partial shard would truncate the dataset and skew its
    class balance.
    """
    state = SampleJournal.read(path)
    if state is None:
        raise JournalError(f"{path}: no sample journal found")
    samples = _by_index(state, partial=False)
    return Dataset.from_samples(
        [features for features, _ in samples], [label for _, label in samples]
    )


def sample_journal_progress(path: str | Path) -> dict:
    """Summarize a sample journal: progress plus class balance.

    Mirrors :func:`journal_progress` for training collections.  Note
    ``total_runs`` counts *planned activations*; the injection stream yields
    at most one sample per activation, so ``done_samples`` can legitimately
    trail it even when every shard is complete.
    """
    state = SampleJournal.read(path)
    if state is None:
        raise JournalError(f"{path}: no sample journal found")
    labels: Counter[str] = Counter()
    for items in state.completed.values():
        for _, (_features, label) in items:
            labels["incorrect" if label else "correct"] += 1
    done_shards = sorted(state.completed_shards)
    return {
        "total_runs": state.total_trials,
        "done_samples": state.completed_trials,
        "n_shards": state.n_shards,
        "completed_shards": done_shards,
        "partial_samples": sum(len(v) for v in state.partial.values()),
        "fraction_shards_done": (
            len(done_shards) / state.n_shards if state.n_shards else 0.0
        ),
        "labels": dict(labels),
    }


def journal_progress(path: str | Path) -> dict:
    """Summarize a journal's progress and outcome mix (machine-readable).

    Works on in-flight and dead journals alike; the engine does not need to
    be running.  Keys: ``total_trials``, ``done_trials``, ``n_shards``,
    ``completed_shards``, ``partial_trials``, ``fraction_done`` and
    per-outcome counters under ``outcomes``.
    """
    state = read_state(path)
    if state is None:
        raise JournalError(f"{path}: no journal found")
    detected: Counter[str] = Counter()
    failure: Counter[str] = Counter()
    for trials in state.completed.values():
        for _, record in trials:
            detected[record.detected_by.value] += 1
            failure[record.failure_class.value] += 1
    done = state.completed_trials
    return {
        "total_trials": state.total_trials,
        "done_trials": done,
        "n_shards": state.n_shards,
        "completed_shards": sorted(state.completed_shards),
        "partial_trials": sum(len(v) for v in state.partial.values()),
        "fraction_done": done / state.total_trials if state.total_trials else 0.0,
        "outcomes": {
            "detected_by": dict(detected),
            "failure_class": dict(failure),
        },
    }
