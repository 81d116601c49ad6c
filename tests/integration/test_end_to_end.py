"""End-to-end integration: the full paper pipeline at miniature scale."""

import pytest

from repro.analysis import (
    LatencyStudy,
    coverage_by_technique,
    long_latency_breakdown,
)
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults.outcomes import DetectionTechnique, FailureClass
from repro.system import PlatformConfig, VirtualPlatform
from repro.xentry import (
    TrainingConfig,
    VMTransitionDetector,
    collect_dataset,
    train_and_evaluate,
)


@pytest.fixture(scope="module")
def pipeline():
    """Train a detector and run a small campaign with it deployed."""
    train = collect_dataset(
        TrainingConfig(fault_free_runs=500, injection_runs=1500, seed=5),
        stream="train",
    )
    test = collect_dataset(
        TrainingConfig(fault_free_runs=250, injection_runs=750, seed=5),
        stream="test",
    )
    model = train_and_evaluate(train, test, algorithm="random_tree", seed=3)
    detector = VMTransitionDetector.from_classifier(model.classifier)
    campaign = FaultInjectionCampaign(
        CampaignConfig(n_injections=900, seed=44), detector=detector
    )
    return model, detector, campaign.run()


class TestPipeline:
    def test_classifier_reaches_operating_point(self, pipeline):
        model, _, _ = pipeline
        assert model.accuracy > 0.93
        assert model.false_positive_rate < 0.03

    def test_campaign_produces_all_three_techniques(self, pipeline):
        _, _, result = pipeline
        cov = coverage_by_technique(result.records)
        assert cov.hw_exception > 0
        assert cov.sw_assertion > 0
        assert cov.vm_transition > 0

    def test_coverage_is_high_with_detector(self, pipeline):
        _, _, result = pipeline
        cov = coverage_by_technique(result.records)
        assert cov.coverage > 0.7

    def test_detector_was_actually_consulted(self, pipeline):
        _, detector, result = pipeline
        assert detector.classifications > 100
        assert detector.total_comparisons >= detector.classifications

    def test_transition_detections_are_long_latency_bound(self, pipeline):
        """Everything the transition detector catches happened at a VM entry
        — detection latency is bounded by the accumulated execution length."""
        _, _, result = pipeline
        for record in result.records:
            if record.detected_by is DetectionTechnique.VM_TRANSITION:
                assert record.detection_latency is not None
                assert record.detection_latency >= 0

    def test_latency_ordering(self, pipeline):
        _, _, result = pipeline
        study = LatencyStudy.from_records(result.records)
        hw = study.percentile(DetectionTechnique.HW_EXCEPTION, 0.5)
        tr = study.percentile(DetectionTechnique.VM_TRANSITION, 0.5)
        if hw is not None and tr is not None:
            assert hw <= tr

    def test_long_latency_errors_exist(self, pipeline):
        _, _, result = pipeline
        breakdown = long_latency_breakdown(result.records)
        assert sum(total for _, total in breakdown.values()) > 10

    def test_campaign_is_reproducible_with_fresh_detector(self, pipeline):
        """Re-running with an identically-trained detector gives identical
        records (classifier, injector and hypervisor are all deterministic)."""
        model, _, result = pipeline
        detector2 = VMTransitionDetector.from_classifier(model.classifier)
        result2 = FaultInjectionCampaign(
            CampaignConfig(n_injections=900, seed=44), detector=detector2
        ).run()
        assert result2.records == result.records


class TestProtectedPlatformUnderFire:
    def test_protect_and_inject_interleaved(self):
        """The deployment API: faults observed through Xentry.protect."""
        platform = VirtualPlatform(PlatformConfig(seed=17))
        xentry = platform.deploy_xentry()
        hv = platform.hypervisor
        from repro.hypervisor import Activation, REGISTRY

        detections = 0
        for i in range(40):
            act = Activation(
                vmer=REGISTRY.by_name("do_irq").vmer, args=(i % 32,),
                domain_id=1 + i % 2, seq=i,
            )
            if i % 4 == 0:
                hv.cpu.schedule_flip(2, ("rdi", 45))  # vector way out
            outcome = xentry.protect(act)
            if not outcome.vm_entry_permitted:
                detections += 1
        assert detections == 10  # every injected fault caught
        counts = xentry.detection_counts()
        assert counts[DetectionTechnique.SW_ASSERTION] == 10
