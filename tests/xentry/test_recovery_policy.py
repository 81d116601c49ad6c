"""Recovery campaigns: ladder semantics, determinism, persistence, reporting.

The tentpole contract under test:

* recovery decisions are pure in ``(seed, trial, attempt)`` — same-seed
  campaigns are bit-identical, with and without twin batching;
* restoring any golden-prefix rung and replaying is bit-identical to the
  uninterrupted golden run (the property micro-reboot recovery rides on);
* records round-trip through the JSONL codec, and pre-recovery journals
  (no ``recovery`` key) still load;
* the escalation ladder is bounded and surfaces ``unrecoverable`` instead
  of leaking exceptions when every rung's budget is spent.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import coverage_by_technique, summarize_recovery
from repro.engine import config_digest
from repro.errors import CampaignConfigError
from repro.faults import CampaignConfig, FaultInjectionCampaign, capture_golden
from repro.hypervisor import REGISTRY, Activation, XenHypervisor
from repro.persist import load_records, save_records
from repro.xentry import (
    LADDER_POLICY,
    POLICIES,
    RecoveryAction,
    RecoveryPolicy,
    policy_from_name,
)

from tests.faults.references import per_trial_records

BENCHMARKS = ("mcf", "postmark")


def run_campaign(
    *,
    recover: str | None,
    n: int = 120,
    seed: int = 3,
    hazard: float = 0.0,
):
    return FaultInjectionCampaign(
        campaign_config(recover=recover, n=n, seed=seed, hazard=hazard)
    ).run()


def campaign_config(
    *, recover: str | None, n: int = 120, seed: int = 3, hazard: float = 0.0
) -> CampaignConfig:
    return CampaignConfig(
        benchmarks=BENCHMARKS,
        n_injections=n,
        seed=seed,
        recover=recover,
        recovery_hazard=hazard,
    )


@pytest.fixture(scope="module")
def ladder_result():
    return run_campaign(recover="ladder")


class TestPolicyDefinitions:
    def test_registry_names_match(self):
        assert set(POLICIES) == {"reexecute", "microreboot", "ladder"}
        for name, policy in POLICIES.items():
            assert policy.name == name
            assert policy_from_name(name) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(CampaignConfigError, match="unknown recovery policy"):
            policy_from_name("reboot-the-planet")
        with pytest.raises(CampaignConfigError):
            CampaignConfig(n_injections=10, recover="nope")

    def test_rungs_validated(self):
        with pytest.raises(CampaignConfigError, match="at least one rung"):
            RecoveryPolicy("empty", ())
        with pytest.raises(CampaignConfigError, match="budget"):
            RecoveryPolicy("zero", ((RecoveryAction.REEXECUTE, 0),))
        with pytest.raises(CampaignConfigError, match="outcome, not a rung"):
            RecoveryPolicy("bad", ((RecoveryAction.UNRECOVERABLE, 1),))

    def test_escalation_flattens_budgets(self):
        assert LADDER_POLICY.escalation() == (
            RecoveryAction.REEXECUTE,
            RecoveryAction.MICROREBOOT,
            RecoveryAction.MICROREBOOT,
            RecoveryAction.QUARANTINE_VM,
        )

    def test_hazard_validated(self):
        with pytest.raises(CampaignConfigError, match="recovery_hazard"):
            CampaignConfig(n_injections=10, recover="ladder", recovery_hazard=1.0)


class TestRungReplayProperty:
    """Micro-reboot's load-bearing property: every golden-prefix rung,
    restored and resumed, lands exactly where the uninterrupted run did."""

    @given(
        reason=st.sampled_from(
            ["mmu_update", "grant_table_op", "sched_op", "page_fault", "memory_op"]
        ),
        arg=st.integers(min_value=2, max_value=9),
    )
    @settings(max_examples=10, deadline=None)
    def test_every_rung_replays_bit_identical(self, reason, arg):
        hv = XenHypervisor(seed=21)
        activation = Activation(
            vmer=REGISTRY.by_name(reason).vmer, args=(arg, 1), domain_id=1, seq=0
        )
        golden = capture_golden(hv, activation, (), ladder_interval=24)
        heap = hv.memory.region("hypervisor_heap")
        assert golden.ladder, "ladder_interval > 0 must produce rungs"
        for rung in golden.ladder:
            hv.restore_machine(rung)
            result = hv.resume_execution(activation)
            assert result.instructions == golden.result.instructions
            assert result.path_hash == golden.result.path_hash
            assert result.features == golden.result.features
            assert result.tsc_end == golden.result.tsc_end
            assert hv.memory.diff_region(heap, golden.heap_image) == []
            assert hv.read_outputs(activation) == golden.outputs


class TestCampaignRecovery:
    def test_every_detected_trial_carries_a_record(self, ladder_result):
        for record in ladder_result.records:
            if record.detected:
                assert record.recovery is not None
                assert record.recovery.policy == "ladder"
                assert record.recovery.attempts >= 1
            else:
                assert record.recovery is None

    def test_recovered_means_measured_clean(self, ladder_result):
        """Success is *defined* by an empty golden diff, so ``recovered``
        and ``clean`` must agree exactly — no trusted-but-unverified wins."""
        for record in ladder_result.records:
            rec = record.recovery
            if rec is None:
                continue
            if rec.recovered:
                assert rec.clean
                assert rec.state_digest == rec.golden_digest
            assert rec.downtime_instructions >= 0

    def test_transient_faults_recover_cleanly(self, ladder_result):
        """The acceptance bar: >= 90% of detected transient single-bit
        faults recover with zero post-recovery divergence."""
        summary = summarize_recovery(ladder_result.records)
        assert summary.trials > 0
        assert summary.clean_rate >= 0.90

    def test_same_seed_rerun_is_bit_identical(self):
        a = run_campaign(recover="ladder", n=60, seed=9)
        b = run_campaign(recover="ladder", n=60, seed=9)
        assert a.records == b.records

    def test_twin_batch_invariance_holds_with_recovery(self):
        batched = run_campaign(recover="microreboot", n=60, seed=9)
        per_trial = per_trial_records(
            campaign_config(recover="microreboot", n=60, seed=9)
        )
        assert batched.records == per_trial

    def test_detection_only_records_unchanged_by_feature(self):
        """recover=None must reproduce the pre-recovery campaign exactly."""
        plain = run_campaign(recover=None, n=60, seed=9)
        assert all(r.recovery is None for r in plain.records)

    def test_hazard_escalates_deterministically(self):
        """A high second-error hazard forces the ladder past re-execution;
        outcomes stay pure in (seed, trial, attempt)."""
        a = run_campaign(recover="ladder", n=120, seed=3, hazard=0.6)
        b = run_campaign(recover="ladder", n=120, seed=3, hazard=0.6)
        assert a.records == b.records
        recs = [r.recovery for r in a.records if r.recovery is not None]
        assert any(rec.attempts > 1 for rec in recs)
        assert any(rec.action == "microreboot" for rec in recs)
        # The ladder is bounded by its budgets.
        limit = len(LADDER_POLICY.escalation())
        assert all(rec.attempts <= limit for rec in recs)

    def test_reexecute_alone_can_exhaust_under_hazard(self):
        result = run_campaign(recover="reexecute", n=120, seed=9, hazard=0.8)
        recs = [r.recovery for r in result.records if r.recovery is not None]
        limit = len(POLICIES["reexecute"].escalation())
        assert all(rec.attempts <= limit for rec in recs)
        unrecovered = [rec for rec in recs if not rec.recovered]
        assert unrecovered, "0.8 hazard should defeat a 2-attempt budget sometimes"
        assert all(rec.action == "unrecoverable" for rec in unrecovered)

    def test_microreboot_is_structurally_divergence_free(self):
        result = run_campaign(recover="microreboot", n=60, seed=7)
        recs = [r.recovery for r in result.records if r.recovery is not None]
        assert recs
        for rec in recs:
            assert rec.recovered and rec.divergent_words == 0


class TestPersistence:
    def test_records_roundtrip_with_recovery(self, ladder_result, tmp_path):
        path = tmp_path / "records.jsonl"
        save_records(ladder_result.records, path)
        assert load_records(path) == ladder_result.records

    def test_detection_only_stream_has_no_recovery_key(self, tmp_path):
        result = run_campaign(recover=None, n=30, seed=4)
        path = tmp_path / "plain.jsonl"
        save_records(result.records, path)
        lines = path.read_text().splitlines()[1:]  # skip header
        assert lines
        assert all("recovery" not in json.loads(line) for line in lines)

    def test_pre_recovery_journals_still_load(self, ladder_result, tmp_path):
        """Rows written before the recovery field existed (no ``recovery``
        key) must load with ``recovery=None``."""
        path = tmp_path / "old.jsonl"
        save_records(ladder_result.records, path)
        lines = path.read_text().splitlines()
        stripped = [lines[0]]
        for line in lines[1:]:
            row = json.loads(line)
            row.pop("recovery", None)
            stripped.append(json.dumps(row))
        path.write_text("\n".join(stripped) + "\n")
        loaded = load_records(path)
        assert len(loaded) == len(ladder_result.records)
        assert all(r.recovery is None for r in loaded)


class TestReporting:
    def test_summary_folds_the_stream(self, ladder_result):
        summary = summarize_recovery(ladder_result.records)
        assert summary.trials == sum(
            1 for r in ladder_result.records if r.recovery is not None
        )
        assert summary.recovered == summary.clean
        assert summary.downtime_p50 <= summary.downtime_p90 <= summary.downtime_max
        assert summary.policies == {"ladder": summary.trials}
        assert any("recovered:" in line for line in summary.lines())

    def test_coverage_gains_recovered_column(self, ladder_result):
        cov = coverage_by_technique(ladder_result.records)
        assert cov.recovered > 0
        assert "recovered=" in cov.row("mcf")

    def test_detection_only_coverage_row_unchanged(self):
        result = run_campaign(recover=None, n=30, seed=4)
        cov = coverage_by_technique(result.records)
        assert cov.recovered == 0
        assert "recovered=" not in cov.row("mcf")


class TestEngineDigest:
    def test_digest_unchanged_when_recovery_off(self):
        """Every pre-recovery journal digest must stay valid."""
        base = CampaignConfig(n_injections=100, seed=1)
        again = CampaignConfig(n_injections=100, seed=1, recover=None)
        assert config_digest(base) == config_digest(again)

    def test_digest_changes_when_recovery_armed(self):
        base = CampaignConfig(n_injections=100, seed=1)
        armed = CampaignConfig(n_injections=100, seed=1, recover="ladder")
        hazarded = CampaignConfig(
            n_injections=100, seed=1, recover="ladder", recovery_hazard=0.5
        )
        digests = {config_digest(base), config_digest(armed), config_digest(hazarded)}
        assert len(digests) == 3
