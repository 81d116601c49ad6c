"""The campaign counter ledger: one process-wide :class:`collections.Counter`.

Every campaign counter lives under one flat key in :data:`LEDGER` and is
incremented in exactly one place.  Nothing resets it: a phase is measured as
the ledger's growth across it (:func:`since`), so detector training never
leaks into a campaign's figures.  Pool workers and inline shards alike return
one :func:`since` delta with each finished shard; the engine's telemetry sums
those into its own ``Counter`` (never into this one, which would count inline
shards twice).  Rates are derived at render time by :func:`derived`, the one
rule behind both the CLI summary and the run manifest.
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "ARTIFACTS", "FAST_FORWARD", "LEDGER", "MACHINE",
    "TRANSLATION", "TWINS", "derived", "since", "snapshot", "view",
]

#: The process-wide ledger (counts, bytes and seconds; all only grow).
LEDGER: Counter = Counter()

#: Fast-forward: trials run, trials resumed from a ladder rung (dead twins
#: count as full-length skips), golden instructions skipped.
FAST_FORWARD = ("trials", "fast_forwarded", "instructions_skipped")
#: Translation cache: program attaches, blocks compiled, execution mix.
TRANSLATION = (
    "program_hits", "program_misses", "blocks_compiled",
    "translated_instructions", "interpreted_instructions", "block_executions",
)
#: Twin batching: ``dead_twins`` were synthesized without execution,
#: ``peeled_twins`` ran per-trial, ``read_ff_instructions`` is the golden
#: prefix a read-point resume skipped past the injection.
TWINS = (
    "twin_batches", "twins", "dead_twins", "peeled_twins",
    "synthesized_instructions", "read_ff_instructions",
)
#: Golden artifact cache: hits and misses (their sum is the number of groups
#: that consulted the cache), rejected artifacts, bytes moved, capture-vs-load
#: seconds.  The manifest's ``golden_cache`` section.
ARTIFACTS = (
    "golden_hits", "golden_misses", "artifact_corrupt",
    "artifact_bytes_loaded", "artifact_bytes_written", "artifact_write_errors",
    "golden_capture_seconds", "golden_load_seconds",
)

#: The manifest's ``machine`` section.
MACHINE = FAST_FORWARD + TRANSLATION + TWINS


def snapshot() -> Counter:
    """A copy of the ledger, to measure a phase with :func:`since`."""
    return LEDGER.copy()


def since(before: Counter) -> Counter:
    """The ledger's growth since ``before`` (unchanged keys are dropped)."""
    return LEDGER - before


def view(keys: tuple[str, ...], counts: Counter = LEDGER) -> dict[str, int | float]:
    """``keys`` of ``counts`` (the process ledger by default), zeros included."""
    return {key: counts[key] for key in keys}


def derived(counts: Counter) -> dict[str, float | None]:
    """Rates and shares of ``counts``.

    ``block_hit_rate`` is the share of block executions served by an
    already-compiled block; ``golden_hit_rate`` is ``None`` when no group
    consulted the artifact cache.
    """
    executions, compiled = counts["block_executions"], counts["blocks_compiled"]
    mix = counts["translated_instructions"] + counts["interpreted_instructions"]
    consulted = counts["golden_hits"] + counts["golden_misses"]
    return {
        "block_hit_rate": (executions - compiled) / executions if executions > compiled else 0.0,
        "translated_share": counts["translated_instructions"] / mix if mix else 0.0,
        "dead_twin_share": counts["dead_twins"] / counts["twins"] if counts["twins"] else 0.0,
        "golden_hit_rate": counts["golden_hits"] / consulted if consulted else None,
    }
