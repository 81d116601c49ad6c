"""GoldenSource policy + the campaign-level bit-identity contract.

The standing contract of the whole subsystem, asserted here end to end on a
real (small) campaign: trial records are byte-identical with the cache cold,
warm, corrupted, unwritable, or absent, serial or pooled.  Corruption
surfaces only as an ``artifact_corrupt`` count in the ledger — never an
exception, never a changed record.
"""

import dataclasses

import pytest

from repro.artifacts import runtime
from repro.artifacts.codec import MAGIC
from repro.artifacts.runtime import GoldenSource, golden_source_for
from repro.counters import ARTIFACTS, LEDGER, view
from repro.engine import CampaignEngine, ChaosPolicy, EngineTelemetry
from repro.faults import CampaignConfig, FaultInjectionCampaign

CONFIG = CampaignConfig(n_injections=24, seed=7, benchmarks=("mcf", "postmark"))


def run_campaign(config):
    return FaultInjectionCampaign(config).run()


def cached(tmp_path):
    return dataclasses.replace(CONFIG, artifacts=str(tmp_path / "cache"))


def artifact_files(tmp_path):
    return sorted((tmp_path / "cache").rglob("*.art"))


class TestSourcePolicy:
    def test_cache_disabled_is_no_source(self, tmp_path):
        # Caching is on exactly when an artifact store is configured.
        assert golden_source_for(CONFIG) is None
        assert isinstance(golden_source_for(cached(tmp_path)), GoldenSource)


class TestCampaignBitIdentity:
    def test_cold_then_warm_matches_uncached(self, tmp_path, ledger):
        baseline = run_campaign(CONFIG)

        ledger.mark()
        cold = run_campaign(cached(tmp_path))
        assert cold.records == baseline.records
        after_cold = ledger()
        assert after_cold["golden_misses"] > 0
        assert after_cold["golden_hits"] == 0
        assert after_cold["artifact_bytes_written"] > 0
        assert artifact_files(tmp_path)

        ledger.mark()
        warm = run_campaign(cached(tmp_path))
        assert warm.records == baseline.records
        assert ledger()["golden_misses"] == 0, "warm run must execute zero golden captures"
        assert ledger()["golden_hits"] == after_cold["golden_misses"]
        assert ledger()["golden_load_seconds"] > 0.0

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "version"])
    def test_corrupt_artifacts_fall_back_to_live_capture(
        self, tmp_path, damage, ledger
    ):
        baseline = run_campaign(CONFIG)
        run_campaign(cached(tmp_path))  # warm the store

        files = artifact_files(tmp_path)
        assert files
        for path in files:
            blob = path.read_bytes()
            if damage == "truncate":
                path.write_bytes(blob[: len(blob) // 3])
            elif damage == "garbage":
                path.write_bytes(b"\xde\xad" * 256)
            else:
                bumped = bytes([MAGIC[-1] + 1])
                path.write_bytes(MAGIC[:-1] + bumped + blob[len(MAGIC):])

        ledger.mark()
        rerun = run_campaign(cached(tmp_path))
        assert rerun.records == baseline.records
        stats = ledger()
        assert stats["artifact_corrupt"] == len(files)
        assert stats["golden_hits"] == 0
        assert stats["golden_misses"] == len(files)
        # The rerun re-published good artifacts over the corpses...
        assert stats["artifact_bytes_written"] > 0
        ledger.mark()
        final = run_campaign(cached(tmp_path))
        # ...so the next run is warm again.
        assert final.records == baseline.records
        assert ledger()["golden_misses"] == 0

    def test_unwritable_store_counts_write_errors(self, tmp_path, ledger):
        baseline = run_campaign(CONFIG)
        # A plain file where the store root should be (permission bits can't
        # make a directory unwritable for root, which is how CI runs).
        root = tmp_path / "cache"
        root.write_bytes(b"not a directory")
        ledger.mark()
        result = run_campaign(dataclasses.replace(CONFIG, artifacts=str(root)))
        assert result.records == baseline.records
        stats = ledger()
        assert stats["artifact_write_errors"] > 0
        assert stats["artifact_bytes_written"] == 0

    def test_cache_disabled_never_touches_the_ledger(self, ledger):
        baseline = run_campaign(CONFIG)
        ledger.mark()
        result = run_campaign(CONFIG)
        assert result.records == baseline.records
        stats = view(ARTIFACTS, ledger())
        # Capture seconds still accrue (they feed the campaign summary's
        # capture-vs-load time-share line, cache or no cache); every
        # cache-specific counter stays untouched.
        assert stats.pop("golden_capture_seconds") > 0.0
        assert all(not v for v in stats.values())


class TestPooledCampaigns:
    """Pool workers read the store directly, one shard at a time."""

    def run_engine(self, config, *, chaos=None):
        telemetry = EngineTelemetry()
        result = CampaignEngine(
            config, jobs=2, n_shards=4, telemetry=telemetry, chaos=chaos
        ).run()
        return result, telemetry.golden_cache_summary()

    @pytest.fixture()
    def warm(self, tmp_path):
        """Baseline records + a store warmed by a serial cold run."""
        baseline = run_campaign(CONFIG)
        config = cached(tmp_path)
        assert run_campaign(config).records == baseline.records
        return baseline, config

    def test_warm_pool_serves_every_group_from_the_store(self, warm):
        baseline, config = warm
        result, cache = self.run_engine(config)
        assert result.records == baseline.records
        assert cache["hit_rate"] == 1.0
        assert cache["golden_misses"] == 0
        assert cache["artifact_bytes_loaded"] > 0

    def test_pool_rebuilds_keep_records_and_hits(self, warm):
        # Hard crashes kill workers mid-shard and force pool rebuilds; the
        # retried attempts read the same store again.
        baseline, config = warm
        chaos = ChaosPolicy(seed=1, hard_crash_rate=0.5, only_attempt=0)
        result, cache = self.run_engine(config, chaos=chaos)
        assert result.records == baseline.records
        assert cache["golden_misses"] == 0

    def test_truncated_artifact_falls_back_mid_run(self, warm, tmp_path):
        # One group's artifact goes bad between runs: its worker captures
        # that group live and every other group is still served cached.
        baseline, config = warm
        files = artifact_files(tmp_path)
        victim = files[len(files) // 2]
        victim.write_bytes(victim.read_bytes()[:100])
        result, cache = self.run_engine(config)
        assert result.records == baseline.records
        assert cache["artifact_corrupt"] == 1
        assert cache["golden_misses"] == 1
        assert cache["golden_hits"] == len(files) - 1


class TestLedger:
    def test_stats_returns_a_snapshot(self):
        snap = runtime.stats()
        LEDGER["golden_hits"] += 1
        try:
            assert runtime.stats()["golden_hits"] == snap["golden_hits"] + 1
            assert snap == {**runtime.stats(), "golden_hits": snap["golden_hits"]}
        finally:
            LEDGER["golden_hits"] -= 1
