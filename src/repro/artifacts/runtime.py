"""Capture-or-load policy for golden artifacts, plus its counter view.

:class:`GoldenSource` is the single object the campaign trial loop talks to:
``acquire`` tries the shared-memory segment first, then the on-disk store,
and ``offer`` publishes a freshly captured group back to disk so the *next*
run (or the next shard sharing the store) skips the capture.  Everything is
fail-open — a corrupt artifact, a vanished segment, or an unwritable store
degrades to live capture, never to an exception — because the standing
contract is that trial records are byte-identical with the cache cold, warm,
shared, or disabled.

Its counters live in the campaign ledger (:mod:`repro.counters`);
:func:`stats` is the artifact-cache view of it.
"""

from __future__ import annotations

import time

from repro.artifacts import shm
from repro.artifacts.codec import ArtifactCorrupt, decode_group, encode_group
from repro.artifacts.store import GoldenStore, golden_digest
from repro.counters import ARTIFACTS, LEDGER, view

__all__ = ["GoldenSource", "golden_source_for", "stats"]


def stats() -> dict[str, int | float]:
    """The ledger's artifact-cache counters (see :data:`repro.counters.ARTIFACTS`)."""
    return view(ARTIFACTS)


class GoldenSource:
    """One campaign run's view of the artifact cache.

    Holds the config (digest identity), the disk store, and optionally the
    name of a parent-published shared-memory segment.  :meth:`poison` — the
    ``shm_lost`` chaos hook — disables the source for the rest of the shard,
    forcing the genuine live-capture fallback rather than a softer retry.
    """

    def __init__(
        self, config, *, store: GoldenStore | None = None, segment: str | None = None
    ) -> None:
        self.config = config
        self.store = store
        self.segment = segment
        self._poisoned = False

    def poison(self) -> None:
        """Stop serving and saving artifacts (chaos: the cache is gone)."""
        self._poisoned = True

    def acquire(self, benchmark: str, group: int, *, registry):
        """Load one golden group's products, or ``None`` to capture live.

        Lookup order: shared segment (zero-copy), then disk store.  A corrupt
        artifact in either counts ``artifact_corrupt`` and falls through.
        """
        if self._poisoned or (self.store is None and self.segment is None):
            return None
        digest = golden_digest(self.config, benchmark, group)
        started = time.perf_counter()
        try:
            payload = self._from_segment(digest, registry)
            if payload is None and self.store is not None:
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

    def _from_segment(self, digest: str, registry):
        if self.segment is None:
            return None
        view = shm.attach(self.segment)
        if view is None:
            return None
        raw = view.get(digest)
        if raw is None:
            return None
        try:
            payload = decode_group(raw, registry=registry)
            if payload.digest != digest:
                raise ArtifactCorrupt("segment blob digest mismatch")
        except ArtifactCorrupt:
            LEDGER["artifact_corrupt"] += 1
            return None
        LEDGER["shm_hits"] += 1
        return payload

    def offer(self, benchmark: str, group: int, golden, plan_state) -> None:
        """Publish a live-captured group to the disk store (best effort)."""
        if self._poisoned or self.store is None:
            return
        digest = golden_digest(self.config, benchmark, group)
        blob = encode_group(digest, golden, plan_state)
        if self.store.save(digest, blob):
            LEDGER["artifact_bytes_written"] += len(blob)
        else:
            LEDGER["artifact_write_errors"] += 1


def golden_source_for(config, *, segment: str | None = None) -> GoldenSource | None:
    """Build the campaign's golden source, or ``None`` when caching is off.

    Full-trace campaigns (``config.trace``) never cache: the full tracer
    records per-instruction addresses whose replay cost *is* the product, and
    mixing traced and untraced captures under one digest would be wrong.
    """
    if not getattr(config, "golden_cache", True) or getattr(config, "trace", False):
        return None
    store = GoldenStore(config.artifacts) if config.artifacts else None
    if store is None and segment is None:
        return None
    return GoldenSource(config, store=store, segment=segment)
