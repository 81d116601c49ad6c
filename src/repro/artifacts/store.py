"""Content-addressed on-disk store for golden-group artifacts.

Every golden group of a campaign — the fault-free :class:`GoldenRun` with
its checkpoint ladder, plus the lock-step :class:`TwinPlan` lowered from its
full trace — is a pure function of the digest-relevant subset of
:class:`~repro.faults.campaign.CampaignConfig` and the ``(benchmark, group)``
coordinates.  :func:`golden_digest` fingerprints exactly that subset, and
:class:`GoldenStore` keys one artifact file per digest under::

    <root>/golden/<digest[:2]>/<digest>.art

Writes are atomic (unique temp file + fsync + ``os.replace``), so a crashed
or concurrent campaign can never leave a torn artifact behind a valid name;
two workers racing to capture the same group write byte-identical content,
so last-rename-wins is harmless.  Reads are checksum-verified by the codec:
a truncated, corrupted or version-bumped file *never* raises out of the
store — it counts as ``artifact_corrupt`` and the campaign falls back to
live capture, under the standing contract that trial records are
byte-identical with the cache cold, warm, shared or absent.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.artifacts.codec import ArtifactCorrupt, decode_group
from repro.faults.campaign import CampaignConfig, benchmark_geometry

__all__ = ["GoldenStore", "golden_digest"]

#: Version tag of the digest payload; bump when the artifact *identity*
#: changes (what a golden group depends on), independent of the binary
#: format version in :mod:`repro.artifacts.codec`.
DIGEST_FORMAT = "xentry-golden-v1"


def golden_digest(config: CampaignConfig, benchmark: str, group: int) -> str:
    """Content address of one golden group's artifact.

    The payload holds everything the golden products depend on — and nothing
    else, so detector/recovery/fault-model sweeps over the same workload
    share artifacts:

    * the activation stream identity: seed, benchmark, mode, domain count,
      warmup length, and the *bulk draw geometry* (``stream_length`` and
      ``stride``) — the workload generator draws the whole activation-index
      array up front, so activation ``i`` depends on the total stream
      length, not just its prefix;
    * the group coordinate within that stream;
    * ``ladder_interval`` (rung placement is part of the artifact) and
      ``twin_batch`` (whether a :class:`TwinPlan` is captured);
    * the scenario payload when one is armed (workload overrides reshape
      the activation mix; the whole payload keys conservatively).

    ``fault_model``, ``recover`` and the detector are deliberately absent:
    they shape *trials*, never the fault-free golden products.
    """
    # Imported here, not at module scope: repro.engine.pool imports this
    # module, and importing the engine package from here would close that
    # loop for any artifacts-first import order.
    from repro.engine.planner import payload_digest

    geo = benchmark_geometry(config)
    payload: dict = {
        "format": DIGEST_FORMAT,
        "seed": config.seed,
        "benchmark": benchmark,
        "group": group,
        "mode": config.mode.value,
        "n_domains": config.n_domains,
        "warmup_activations": config.warmup_activations,
        "stride": geo.stride,
        "stream_length": geo.n_goldens * geo.stride,
        "ladder_interval": config.ladder_interval,
        "twin_batch": config.twin_batch,
    }
    if config.scenario is not None:
        payload["scenario"] = config.scenario.digest_payload()
    return payload_digest(payload)


class GoldenStore:
    """Filesystem half of the artifact cache (one directory, many digests).

    :meth:`load` returns ``None`` for a missing or unreadable file and
    raises :class:`ArtifactCorrupt` for a bad one (the runtime layer counts
    it and captures live); :meth:`save` degrades to a no-op on an
    unwritable directory — caching is an optimization, not a correctness
    dependency.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        """Content-addressed location of one artifact."""
        return self.root / "golden" / digest[:2] / f"{digest}.art"

    def load(self, digest: str, *, registry):
        """Decode one artifact; ``None`` when absent or unreadable, raises
        ArtifactCorrupt for present-but-invalid bytes (the runtime layer
        converts that into an ``artifact_corrupt`` count plus live-capture
        fallback)."""
        try:
            blob = self.path_for(digest).read_bytes()
        except OSError:
            return None
        payload = decode_group(blob, registry=registry)
        if payload.digest != digest:
            raise ArtifactCorrupt(
                f"artifact self-identifies as {payload.digest}, filed as {digest}"
            )
        return payload

    def save(self, digest: str, blob: bytes) -> bool:
        """Atomically publish ``blob`` under ``digest``; False on failure.

        The temp name is unique per process so concurrent captures of the
        same group never collide mid-write; both rename byte-identical
        content into place.
        """
        path = self.path_for(digest)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            return True
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
