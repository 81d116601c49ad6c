"""VM transition detector, training pipeline, and framework facade."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.errors import CampaignConfigError, NotFittedError
from repro.faults.outcomes import DetectionTechnique, FaultSpec
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.ml import CORRECT, Dataset, DecisionTreeClassifier, INCORRECT
from repro.workloads import VirtMode, WorkloadGenerator, get_profile
from repro.xentry import (
    ProtectionVerdict,
    TrainingConfig,
    VMTransitionDetector,
    Xentry,
    collect_dataset,
    train_and_evaluate,
)


def tiny_dataset(seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    vmer = rng.integers(0, 4, 300)
    rt = np.where(rng.random(300) < 0.8, 100 + vmer * 10, 400 + vmer * 10)
    correct = rt < 300
    X = np.column_stack([vmer, rt, rt // 4, rt // 3, rt // 5]).astype(np.int64)
    return Dataset(X, (~correct).astype(np.int8))


class TestVMTransitionDetector:
    def test_from_unfitted_classifier_rejected(self):
        with pytest.raises(NotFittedError):
            VMTransitionDetector.from_classifier(DecisionTreeClassifier())

    def test_flags_and_counts(self):
        ds = tiny_dataset()
        det = VMTransitionDetector.from_classifier(DecisionTreeClassifier().fit(ds))
        flags = [det.flags_incorrect(tuple(row)) for row in ds.X]
        assert det.classifications == len(ds)
        assert det.positives == sum(flags)
        assert 0 < det.mean_comparisons <= det.worst_case_comparisons

    def test_reset_stats(self):
        ds = tiny_dataset()
        det = VMTransitionDetector.from_classifier(DecisionTreeClassifier().fit(ds))
        det.flags_incorrect(tuple(ds.X[0]))
        det.reset_stats()
        assert det.classifications == 0 and det.total_comparisons == 0


class TestTrainingPipeline:
    @pytest.fixture(scope="class")
    def datasets(self):
        cfg = TrainingConfig(
            benchmarks=("postmark", "mcf"), fault_free_runs=120,
            injection_runs=240, seed=13,
        )
        train = collect_dataset(cfg, stream="train")
        test = collect_dataset(cfg, stream="test")
        return train, test

    def test_collects_both_classes(self, datasets):
        train, _ = datasets
        n_correct, n_incorrect = train.class_counts()
        assert n_correct > 0 and n_incorrect > 0

    def test_collection_is_deterministic(self):
        cfg = TrainingConfig(benchmarks=("mcf",), fault_free_runs=40,
                             injection_runs=60, seed=3)
        a = collect_dataset(cfg)
        b = collect_dataset(cfg)
        assert (a.X == b.X).all() and (a.y == b.y).all()

    def test_train_and_test_streams_differ(self):
        cfg = TrainingConfig(benchmarks=("mcf",), fault_free_runs=40,
                             injection_runs=60, seed=3)
        a = collect_dataset(cfg, stream="train")
        b = collect_dataset(cfg, stream="test")
        assert a.X.shape != b.X.shape or not (a.X == b.X).all()

    def test_both_algorithms_train_with_high_accuracy(self, datasets):
        train, test = datasets
        for algo in ("decision_tree", "random_tree"):
            model = train_and_evaluate(train, test, algorithm=algo, seed=1)
            assert model.accuracy > 0.90
            assert model.false_positive_rate < 0.05
            assert algo in model.report()

    def test_unknown_algorithm_rejected(self, datasets):
        train, test = datasets
        with pytest.raises(CampaignConfigError):
            train_and_evaluate(train, test, algorithm="svm")

    def test_config_validation(self):
        with pytest.raises(CampaignConfigError):
            TrainingConfig(fault_free_runs=0)


class AlternatingKillFaultModel:
    """Deterministic fault schedule: odd draws kill, even draws never fire.

    The killing spec (rbp bit 44 at dynamic index 3) derails the globals
    base early enough that every activation dies on a hardware exception
    before VM entry; the inert spec schedules its flip beyond any run
    length, so the faulty run is bit-identical to the golden run (fully
    masked -> a CORRECT sample whose features equal the fault-free stream's
    features at that position).
    """

    registers = ("rbp",)
    bits = (44, 44)

    def __init__(self):
        self.calls = 0

    def sample(self, rng, run_length):
        self.calls += 1
        if self.calls % 2 == 1:
            return FaultSpec(register="rbp", bit=44, dynamic_index=3)
        return FaultSpec(register="rbp", bit=44, dynamic_index=1_000_000_000)


class TestStreamBugfixes:
    """Regressions for the collect_dataset state-stream corruption bugs."""

    N_INJ = 20

    def _config(self):
        return TrainingConfig(
            benchmarks=("mcf",), fault_free_runs=1, injection_runs=self.N_INJ,
            seed=11, fault_model=AlternatingKillFaultModel(),
        )

    def _fault_free_stream(self, config, part, n):
        """Features of executing the named activation stream fault-free."""
        hv = XenHypervisor(n_domains=config.n_domains, seed=config.seed)
        generator = WorkloadGenerator(
            get_profile("mcf"), config.mode,
            seed=rng_mod.derive_seed(config.seed, "train", "mcf"),
            n_domains=config.n_domains,
        )
        hv.reset()
        return [
            hv.execute(a).features
            for a in generator.activations(n, stream=f"train.{part}")
        ]

    def test_exception_killed_injections_do_not_stall_the_stream(self):
        """The golden stream keeps evolving across exception-killed runs.

        Every odd injection dies on a hardware exception (no sample); every
        even injection is fully masked, so its sample features ARE the
        fault-free stream's features at that position.  Before the fix the
        exception path restored the checkpoint without re-executing, so the
        stream froze at the first kill and every later masked sample
        repeated stale state.
        """
        config = self._config()
        ds = collect_dataset(config)
        free = self._fault_free_stream(config, "free", 1)
        inj = self._fault_free_stream(config, "inj", self.N_INJ)
        expected = free + [inj[i] for i in range(1, self.N_INJ, 2)]
        assert [tuple(row) for row in ds.X.tolist()] == [
            tuple(int(v) for v in f) for f in expected
        ]
        assert (ds.y == CORRECT).all()
        # The masked samples must not all repeat one stale state vector.
        masked = ds.X[1:]
        assert len(np.unique(masked, axis=0)) > 1

    def test_every_planned_injection_is_executed(self):
        """The dead `injected >= per_bench_inj` guard is gone: the stream
        drives exactly one injection per planned activation, and killed
        injections still consume their activation (they just yield no
        sample)."""
        config = self._config()
        ds = collect_dataset(config)
        assert config.fault_model.calls == self.N_INJ
        # 1 fault-free sample + one masked sample per even-indexed run;
        # the 10 killed runs contribute activations but no samples.
        assert len(ds) == 1 + self.N_INJ // 2


class TestXentryFramework:
    @pytest.fixture(scope="class")
    def protected(self):
        hv = XenHypervisor(seed=21)
        # A permissive detector (trained on all-correct data) so clean
        # activations stay clean; runtime-detection paths are what we drive.
        ds = Dataset.from_samples([(i, 10 * i, i, i, i) for i in range(8)], [CORRECT] * 8)
        det = VMTransitionDetector.from_classifier(DecisionTreeClassifier().fit(ds))
        return Xentry(hv, transition_detector=det), hv

    def test_clean_activation_permits_vm_entry(self, protected):
        xentry, hv = protected
        hv.reset()
        act = Activation(vmer=REGISTRY.by_name("set_timer_op").vmer, args=(5,), domain_id=1)
        outcome = xentry.protect(act)
        assert outcome.verdict is ProtectionVerdict.CLEAN
        assert outcome.vm_entry_permitted
        assert outcome.features is not None

    def test_hardware_exception_yields_detection(self, protected):
        xentry, hv = protected
        hv.reset()
        act = Activation(vmer=REGISTRY.by_name("mmu_update").vmer, args=(5, 1), domain_id=1)
        hv.cpu.schedule_flip(3, ("rbp", 44))  # derail the globals base
        outcome = xentry.protect(act)
        assert outcome.verdict is ProtectionVerdict.DETECTED
        assert outcome.detection.technique is DetectionTechnique.HW_EXCEPTION
        assert not outcome.vm_entry_permitted

    def test_assertion_yields_detection(self, protected):
        xentry, hv = protected
        hv.reset()
        act = Activation(vmer=REGISTRY.by_name("do_irq").vmer, args=(99,), domain_id=1)
        # Argument out of the legal 0..31 range: the Listing 1 assertion at
        # handler entry must fire.
        outcome = xentry.protect(act)
        assert outcome.verdict is ProtectionVerdict.DETECTED
        assert outcome.detection.technique is DetectionTechnique.SW_ASSERTION

    def test_detection_counts_aggregate(self, protected):
        xentry, _ = protected
        counts = xentry.detection_counts()
        assert counts[DetectionTechnique.HW_EXCEPTION] >= 1
        assert counts[DetectionTechnique.SW_ASSERTION] >= 1

    def test_protect_without_transition_detector(self):
        hv = XenHypervisor(seed=22)
        xentry = Xentry(hv)  # runtime detection only (the Fig. 7 shaded bars)
        act = Activation(vmer=REGISTRY.by_name("xen_version").vmer, args=(1,), domain_id=1)
        assert xentry.protect(act).verdict is ProtectionVerdict.CLEAN
