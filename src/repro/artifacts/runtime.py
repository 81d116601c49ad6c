"""Capture-or-load policy for golden artifacts, plus its counter view.

:class:`GoldenSource` is the single object the campaign trial loop talks to:
``acquire`` loads a group from the on-disk store, and ``offer`` publishes a
freshly captured group back to it so the *next* run (or the next shard
sharing the store) skips the capture.  Everything is fail-open — a corrupt
artifact or an unwritable store degrades to live capture, never to an
exception — because the standing contract is that trial records are
byte-identical with the cache cold, warm, shared, or absent.

Its counters live in the campaign ledger (:mod:`repro.counters`);
:func:`stats` is the artifact-cache view of it.
"""

from __future__ import annotations

import time

from repro.artifacts.codec import ArtifactCorrupt, encode_group
from repro.artifacts.store import GoldenStore, golden_digest
from repro.counters import ARTIFACTS, LEDGER, view

__all__ = ["GoldenSource", "golden_source_for", "stats"]


def stats() -> dict[str, int | float]:
    """The ledger's artifact-cache counters (see :data:`repro.counters.ARTIFACTS`)."""
    return view(ARTIFACTS)


class GoldenSource:
    """One campaign run's view of the artifact cache: the config (digest
    identity) and the disk store."""

    def __init__(self, config, store: GoldenStore) -> None:
        self.config = config
        self.store = store

    def acquire(self, benchmark: str, group: int, *, registry):
        """Load one golden group's products, or ``None`` to capture live.

        A corrupt artifact counts ``artifact_corrupt`` and is a miss.
        """
        digest = golden_digest(self.config, benchmark, group)
        started = time.perf_counter()
        try:
            payload = self.store.load(digest, registry=registry)
        except ArtifactCorrupt:
            LEDGER["artifact_corrupt"] += 1
            payload = None
        finally:
            LEDGER["golden_load_seconds"] += time.perf_counter() - started
        if payload is None:
            LEDGER["golden_misses"] += 1
            return None
        LEDGER["golden_hits"] += 1
        LEDGER["artifact_bytes_loaded"] += payload.nbytes
        return payload

    def offer(self, benchmark: str, group: int, golden, plan_state) -> None:
        """Publish a live-captured group to the disk store (best effort)."""
        digest = golden_digest(self.config, benchmark, group)
        blob = encode_group(digest, golden, plan_state)
        if self.store.save(digest, blob):
            LEDGER["artifact_bytes_written"] += len(blob)
        else:
            LEDGER["artifact_write_errors"] += 1


def golden_source_for(config) -> GoldenSource | None:
    """The campaign's golden source, or ``None`` without an artifact store."""
    if not config.artifacts:
        return None
    return GoldenSource(config, GoldenStore(config.artifacts))
