"""Shared-memory distribution: segment format, lifecycle, and leak hygiene.

Two layers of contract.  In-process: :func:`build_segment` /
:class:`SegmentView` round-trip digests to zero-copy blob views, ``attach``
never raises on a vanished or malformed name, and the publisher's
terminal-state release keeps one segment alive across retried attempts.
End-to-end: a pooled warm campaign serves shards through ``/dev/shm`` with
bit-identical records, and **no segment name survives** the engine — after a
normal exit, after pool rebuilds forced by hard-crash chaos, and after
``shm_lost`` chaos unlinks segments mid-shard.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.artifacts.shm import (
    SEGMENT_MAGIC,
    SegmentPublisher,
    SegmentView,
    attach,
    build_segment,
    detach_all,
    unlink_segment,
)
from repro.engine import CampaignEngine, ChaosPolicy, EngineTelemetry
from repro.faults import CampaignConfig, FaultInjectionCampaign

BLOBS = {"aa" * 16: b"alpha-artifact", "bb" * 16: b"x" * 13, "cc" * 16: b""}

CONFIG = CampaignConfig(
    n_injections=24, seed=9, benchmarks=("mcf", "postmark"), ladder_interval=16
)


def shm_names() -> list[str]:
    """Live golden segments in this machine's /dev/shm."""
    return sorted(p.name for p in Path("/dev/shm").glob("xgold-*"))


@pytest.fixture(autouse=True)
def clean_slate():
    detach_all()
    yield
    detach_all()


class TestSegmentFormat:
    def test_round_trip_every_blob(self):
        publisher = SegmentPublisher()
        name = publisher.prepare(0, BLOBS)
        try:
            view = attach(name)
            assert view is not None
            for digest, blob in BLOBS.items():
                got = view.get(digest)
                assert got is not None and bytes(got) == blob
                got.release()  # a held view would pin the mapping at detach
            assert view.get("dd" * 16) is None
        finally:
            detach_all()
            publisher.close_all()

    def test_blobs_are_8_aligned_views(self):
        image = build_segment(BLOBS)
        assert image.startswith(SEGMENT_MAGIC)
        header = len(SEGMENT_MAGIC) + 8
        toc_len = int.from_bytes(image[len(SEGMENT_MAGIC) : header], "little")
        extents = json.loads(image[header : header + toc_len])
        assert extents.keys() == BLOBS.keys()
        for offset, _length in extents.values():
            assert offset % 8 == 0

    def test_get_is_bounds_checked(self):
        # A TOC extent pointing past the mapping (torn publish, hostile
        # segment) yields None, not an IndexError or an over-read.
        image = bytearray(build_segment({"aa" * 16: b"tiny"}))

        class FakeSegment:
            buf = memoryview(bytes(image))

        view = SegmentView(FakeSegment())
        view.extents["aa" * 16] = [0, 1 << 30]
        assert view.get("aa" * 16) is None

    def test_malformed_magic_rejected(self):
        class FakeSegment:
            buf = memoryview(b"WRONGMG\x01" + b"\x00" * 64)

            def close(self):
                pass

        with pytest.raises(ValueError):
            SegmentView(FakeSegment())


class TestAttach:
    def test_attach_missing_name_is_none(self):
        assert attach("xgold-does-not-exist") is None

    def test_attach_is_cached_per_name(self):
        publisher = SegmentPublisher()
        name = publisher.prepare(0, BLOBS)
        try:
            assert attach(name) is attach(name)
        finally:
            detach_all()
            publisher.close_all()

    def test_attach_survives_parent_unlink(self):
        # The parent unlinks a finished shard's name while workers still
        # hold mappings: POSIX keeps the pages alive until the last close.
        publisher = SegmentPublisher()
        name = publisher.prepare(0, BLOBS)
        view = attach(name)
        publisher.finished(0)
        assert name not in shm_names()
        assert bytes(view.get("aa" * 16)) == BLOBS["aa" * 16]
        detach_all()


class TestPublisher:
    def test_prepare_empty_is_none(self):
        assert SegmentPublisher().prepare(0, {}) is None

    def test_prepare_is_idempotent_per_shard(self, ledger):
        publisher = SegmentPublisher()
        try:
            name = publisher.prepare(3, BLOBS)
            assert publisher.prepare(3, BLOBS) == name
            assert ledger()["shm_segments"] == 1
            other = publisher.prepare(4, BLOBS)
            assert other != name
        finally:
            publisher.close_all()
        assert shm_names() == []

    def test_finished_unlinks_exactly_that_shard(self):
        publisher = SegmentPublisher()
        a = publisher.prepare(0, BLOBS)
        b = publisher.prepare(1, BLOBS)
        publisher.finished(0)
        names = shm_names()
        assert a not in names and b in names
        publisher.finished(1)
        publisher.finished(1)  # second call is a no-op
        assert shm_names() == []

    def test_close_all_after_chaos_unlink_is_silent(self):
        # shm_lost removed the name already; teardown must neither raise
        # nor double-count.
        publisher = SegmentPublisher()
        name = publisher.prepare(0, BLOBS)
        assert unlink_segment(name) is True
        assert unlink_segment(name) is False
        publisher.close_all()
        assert shm_names() == []


class TestPooledCampaigns:
    """End-to-end /dev/shm hygiene over the real engine."""

    def run_engine(self, config, *, jobs=2, chaos=None):
        telemetry = EngineTelemetry()
        result = CampaignEngine(
            config, jobs=jobs, n_shards=4, telemetry=telemetry, chaos=chaos
        ).run()
        return result, telemetry

    @pytest.fixture()
    def warm(self, tmp_path):
        """Baseline records + a store warmed by a serial cold run."""
        baseline = FaultInjectionCampaign(CONFIG).run()
        config = dataclasses.replace(CONFIG, artifacts=str(tmp_path / "cache"))
        assert FaultInjectionCampaign(config).run().records == baseline.records
        return baseline, config

    def test_warm_pool_serves_from_shm_and_cleans_up(self, warm):
        baseline, config = warm
        before = shm_names()
        result, telemetry = self.run_engine(config)
        assert result.records == baseline.records
        cache = telemetry.golden_cache_summary()
        assert cache["hit_rate"] == 1.0
        assert cache["golden_misses"] == 0
        assert cache["shm_hits"] == cache["golden_hits"]
        assert cache["shm_segments"] == 4
        assert shm_names() == before, "engine exit leaked segments"

    def test_pool_rebuilds_do_not_leak_segments(self, warm):
        # Hard crashes kill workers mid-shard and force pool rebuilds; the
        # retried attempts reuse the shard's segment and the terminal
        # release still unlinks every name.
        baseline, config = warm
        before = shm_names()
        chaos = ChaosPolicy(seed=1, hard_crash_rate=0.5, only_attempt=0)
        result, telemetry = self.run_engine(config, chaos=chaos)
        assert result.records == baseline.records
        assert telemetry.golden_cache_summary().get("golden_misses", 0) == 0
        assert shm_names() == before, "pool rebuild leaked segments"

    def test_shm_lost_chaos_is_bit_identical_and_leak_free(self, warm):
        # Satellite contract: losing every shard's segment mid-flight must
        # not change one record byte — the poisoned source falls back to
        # live capture — and must not leave a name behind.
        baseline, config = warm
        before = shm_names()
        chaos = ChaosPolicy(seed=3, shm_lost_rate=1.0)
        result, telemetry = self.run_engine(config, chaos=chaos)
        assert result.records == baseline.records
        cache = telemetry.golden_cache_summary()
        assert cache["shm_lost"] == 4
        # Poisoned sources are no longer consulted, so whatever was served
        # before the loss stays a hit and nothing counts as a miss.
        assert cache.get("golden_misses", 0) == 0
        assert shm_names() == before, "chaos shm_lost leaked segments"

    def test_serial_engine_ignores_segments_entirely(self, warm):
        baseline, config = warm
        result, telemetry = self.run_engine(config, jobs=1)
        assert result.records == baseline.records
        cache = telemetry.golden_cache_summary()
        assert cache["hit_rate"] == 1.0
        assert cache.get("shm_segments", 0) == 0

    def test_shm_module_stats_flow_into_manifest(self, warm):
        _, config = warm
        _, telemetry = self.run_engine(config)
        manifest = telemetry.manifest()
        cache = manifest["golden_cache"]
        assert cache["hit_rate"] == 1.0
        assert cache["shm_bytes"] > 0
        assert cache["artifact_bytes_loaded"] > 0
