"""Fault model, single trials, and campaign orchestration."""

import numpy as np
import pytest

from repro.errors import CampaignConfigError
from repro.faults import (
    CampaignConfig,
    FaultInjectionCampaign,
    FaultModel,
    FaultSpec,
    capture_golden,
    run_trial,
)
from repro.faults.outcomes import DetectionTechnique, FailureClass
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.machine.registers import INJECTABLE_REGISTERS


@pytest.fixture(scope="module")
def hv() -> XenHypervisor:
    return XenHypervisor(seed=11)


def act(name: str, *args: int, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args, domain_id=1, seq=seq)


class TestFaultModel:
    def test_samples_stay_in_bounds(self):
        model = FaultModel()
        rng = np.random.default_rng(0)
        for _ in range(200):
            spec = model.sample(rng, run_length=50)
            assert spec.register in INJECTABLE_REGISTERS
            assert 0 <= spec.bit <= 63
            assert 0 <= spec.dynamic_index < 50

    def test_register_restriction(self):
        model = FaultModel(registers=("rip",))
        rng = np.random.default_rng(1)
        assert all(model.sample(rng, 10).register == "rip" for _ in range(20))

    def test_validation(self):
        with pytest.raises(CampaignConfigError):
            FaultModel(registers=())
        with pytest.raises(CampaignConfigError):
            FaultModel(registers=("xmm0",))
        with pytest.raises(CampaignConfigError):
            FaultModel(bits=(0, 99))
        with pytest.raises(CampaignConfigError):
            FaultModel().sample(np.random.default_rng(0), 0)


class TestRunTrial:
    def test_pointer_corruption_detected_by_hw_exception(self, hv):
        hv.reset()
        a = act("mmu_update", 10, 1)
        golden = capture_golden(hv, a)
        # rbp is the globals base: flipping a high bit derails the very next
        # memory access through it.
        rec = run_trial(
            hv, a, FaultSpec("rbp", 40, 5), golden=golden, benchmark="mcf"
        )
        assert rec.detected_by is DetectionTechnique.HW_EXCEPTION
        assert rec.failure_class is FailureClass.HYPERVISOR_CRASH
        assert rec.detection_latency is not None

    def test_non_activated_fault_is_benign(self, hv):
        hv.reset()
        a = act("xen_version", 1, 0)
        golden = capture_golden(hv, a)
        # r15 is never touched by any handler.
        rec = run_trial(hv, a, FaultSpec("r15", 30, 2), golden=golden)
        assert rec.failure_class is FailureClass.BENIGN
        assert not rec.activated
        assert not rec.detected

    def test_golden_state_restored_between_uses(self, hv):
        """Running a trial must not leak faulty state into the next golden."""
        hv.reset()
        a = act("event_channel_op", 5, 0)
        golden = capture_golden(hv, a)
        hv.restore(golden.checkpoint)
        before = hv.memory.checkpoint()
        run_trial(hv, a, FaultSpec("rbx", 12, 3), golden=golden)
        hv.restore(golden.checkpoint)
        assert hv.memory.checkpoint() == before

    def test_trial_is_deterministic(self, hv):
        hv.reset()
        a = act("grant_table_op", 12, 2)
        golden = capture_golden(hv, a)
        fault = FaultSpec("rcx", 7, 4)
        rec1 = run_trial(hv, a, fault, golden=golden)
        rec2 = run_trial(hv, a, fault, golden=golden)
        assert rec1 == rec2

    def test_some_faults_cross_vm_entry(self, hv):
        """Sweeping bits over a data register in the cpuid-emulation path must
        produce at least one long-latency (guest-visible) outcome."""
        hv.reset()
        a = act("hvm_cpuid", 1, 0)
        golden = capture_golden(hv, a)
        classes = set()
        for bit in range(0, 32, 3):
            for idx in range(golden.result.instructions):
                rec = run_trial(hv, a, FaultSpec("rbx", bit, idx), golden=golden)
                classes.add(rec.failure_class)
        assert any(c.is_long_latency for c in classes)


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(CampaignConfigError):
            CampaignConfig(benchmarks=())
        with pytest.raises(CampaignConfigError):
            CampaignConfig(n_injections=0)
        with pytest.raises(CampaignConfigError):
            CampaignConfig(injections_per_golden=0)

    def test_campaign_runs_and_is_deterministic(self):
        cfg = CampaignConfig(benchmarks=("mcf", "postmark"), n_injections=60, seed=9)
        r1 = FaultInjectionCampaign(cfg).run()
        r2 = FaultInjectionCampaign(cfg).run()
        assert r1.records == r2.records
        assert len(r1) == 60

    def test_campaign_covers_requested_benchmarks(self):
        cfg = CampaignConfig(benchmarks=("bzip2", "canneal"), n_injections=40, seed=3)
        result = FaultInjectionCampaign(cfg).run()
        assert {r.benchmark for r in result.records} == {"bzip2", "canneal"}
        assert len(result.for_benchmark("bzip2")) == 20

    def test_campaign_produces_mixed_outcomes(self):
        cfg = CampaignConfig(n_injections=300, seed=4)
        result = FaultInjectionCampaign(cfg).run()
        classes = {r.failure_class for r in result.records}
        assert FailureClass.BENIGN in classes
        assert FailureClass.HYPERVISOR_CRASH in classes
        assert len(result.manifested) > 20
        assert len(result.activated) >= len(result.manifested) - sum(
            1 for r in result.records if r.failure_class is FailureClass.BENIGN
        )
