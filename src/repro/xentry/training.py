"""Training-set collection and classifier construction (Section III.B).

The paper builds its VM-transition model from simulator traces: "We conduct
about 23,400 fault injections and fault-free runs to collect training
samples ... In total, the training data set contains 12,024 samples (10,280
samples are labeled as correct, and 1,744 are labeled as incorrect)", then a
separate ~17,700-injection pass yields the 6,596-sample test set.  Random
tree reaches 98.6% accuracy vs 96.1% for the plain decision tree.

This module reproduces that pipeline on the simulated platform:

* **correct samples** come from fault-free activation streams (state evolves
  between activations, so per-VMER feature distributions have realistic
  variance) *and* from injected runs whose fault was masked;
* **incorrect samples** come from injected runs that reached VM entry with a
  divergent execution (the population transition detection must catch).
  Injected runs that die on a hardware exception or assertion never reach VM
  entry and therefore contribute no transition sample — exactly as on the
  real system.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro import rng as rng_mod
from repro.engine.chaos import ChaosPolicy
from repro.engine.journal import SampleJournal
from repro.engine.planner import TrainingShard, payload_digest, plan_training_shards
from repro.engine.supervisor import RetryPolicy, run_shards
from repro.engine.telemetry import EngineTelemetry
from repro.errors import (
    CampaignConfigError,
    EngineError,
    SimulationLimitExceeded,
)
from repro.faults.model import FaultModel
from repro.faults.propagation import capture_golden, compute_divergence
from repro.hypervisor.xen import XenHypervisor
from repro.machine.exceptions import AssertionViolation, HardwareException
from repro.ml.dataset import CORRECT, Dataset, INCORRECT
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.export import CompiledRules, compile_tree
from repro.ml.metrics import ConfusionMatrix, evaluate
from repro.ml.random_tree import RandomTreeClassifier
from repro.workloads.base import VirtMode
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.suite import BENCHMARK_NAMES, get_profile

__all__ = [
    "TrainingConfig",
    "TrainedModel",
    "collect_dataset",
    "execute_training_shard",
    "train_and_evaluate",
    "training_digest",
]

TRAINING_PLAN_FORMAT = "xentry-training-v1"


@dataclass(frozen=True)
class TrainingConfig:
    """Sample-collection parameters.

    Defaults are scaled down from the paper's 23,400/17,700 injections so the
    pipeline runs in seconds; scale ``fault_free_runs``/``injection_runs`` up
    to approach the paper's sample counts.
    """

    benchmarks: tuple[str, ...] = BENCHMARK_NAMES
    mode: VirtMode = VirtMode.PV
    fault_free_runs: int = 600
    injection_runs: int = 1_200
    seed: int = 0
    n_domains: int = 3
    fault_model: FaultModel = field(default_factory=FaultModel)

    def __post_init__(self) -> None:
        if self.fault_free_runs < 1 or self.injection_runs < 1:
            raise CampaignConfigError("run counts must be positive")


def training_digest(config: TrainingConfig, stream: str = "train") -> str:
    """Stable fingerprint of everything that shapes a collection's samples.

    The sample journal stores it so a resume against a different collection
    (different seed, benchmarks, stream, ...) is rejected instead of silently
    merging unrelated samples.
    """
    payload = {
        "format": TRAINING_PLAN_FORMAT,
        "stream": stream,
        "benchmarks": list(config.benchmarks),
        "mode": config.mode.value,
        "fault_free_runs": config.fault_free_runs,
        "injection_runs": config.injection_runs,
        "seed": config.seed,
        "n_domains": config.n_domains,
        "fault_registers": list(config.fault_model.registers),
        "fault_bits": list(config.fault_model.bits),
    }
    return payload_digest(payload)


Sample = tuple[tuple[int, ...], int]


def _collect_free_part(
    hv: XenHypervisor,
    generator: WorkloadGenerator,
    shard: TrainingShard,
    stream: str,
    step: Callable[[], None] | None,
) -> list[Sample]:
    """Fault-free stream: evolving state, every transition labeled CORRECT."""
    items: list[Sample] = []
    for activation in generator.activations(shard.n_runs, stream=f"{stream}.free"):
        result = hv.execute(activation)
        items.append((result.features, CORRECT))
        if step is not None:
            step()
    return items


def _collect_inj_part(
    hv: XenHypervisor,
    config: TrainingConfig,
    generator: WorkloadGenerator,
    shard: TrainingShard,
    stream: str,
    step: Callable[[], None] | None,
) -> list[Sample]:
    """Injection stream: golden/faulty pairs, at most one sample per run."""
    fault_rng = rng_mod.stream(config.seed, stream, "faults", shard.benchmark)
    items: list[Sample] = []
    for activation in generator.activations(shard.n_runs, stream=f"{stream}.inj"):
        golden = capture_golden(hv, activation)
        hv.restore(golden.checkpoint)
        fault = config.fault_model.sample(fault_rng, golden.result.instructions)
        hv.cpu.schedule_flip(fault.dynamic_index, *fault.flips)
        try:
            faulty = hv.execute(activation)
        except (HardwareException, AssertionViolation, SimulationLimitExceeded):
            # Never reached VM entry: no transition sample to learn from.
            faulty = None
        if faulty is not None:
            divergence = compute_divergence(hv, activation, golden, faulty)
            if divergence.path_changed:
                # Incorrect control flow: the class VM transition detection
                # is designed to recognize (Section III.B).
                items.append((faulty.features, INCORRECT))
            elif not divergence.any:
                # Fully masked fault: indistinguishable from correct — a
                # legitimate correct sample.
                items.append((faulty.features, CORRECT))
            # Data-only divergence is excluded: by construction it leaves
            # the control-flow features untouched, so it carries no signal
            # and would only poison the classes (these faults are the
            # paper's undetected Table II population, not training material).
        # However the injection ended — killed by an exception, diverged, or
        # masked — advance the stream from uncorrupted state: restore the
        # golden checkpoint and re-execute the activation fault-free, so the
        # next golden capture sees an evolved (never corrupted, never
        # stalled) state stream.
        hv.restore(golden.checkpoint)
        hv.execute(activation)
        if step is not None:
            step()
    return items


def execute_training_shard(
    config: TrainingConfig,
    shard: TrainingShard,
    detector=None,
    step: Callable[[], None] | None = None,
    *,
    stream: str = "train",
) -> list[tuple[int, Sample]]:
    """Run one collection shard; return its ``(global run index, sample)``
    pairs.

    Module-level so a process pool can pickle it; workers rebuild their own
    hypervisor from the config.  Every shard starts from post-boot state
    (``hv.reset()``) and draws from RNG streams named by ``(seed, stream,
    benchmark, part)``, so shards execute in any process, in any order, and
    still produce exactly the samples the serial collection would have
    produced at those positions.  ``detector`` is the supervisor protocol
    slot — collection deploys no detector, the argument is ignored.
    ``step`` is called after every activation (the supervisor's chaos
    tripwire).
    """
    hv = XenHypervisor(n_domains=config.n_domains, seed=config.seed)
    generator = WorkloadGenerator(
        get_profile(shard.benchmark), config.mode,
        seed=rng_mod.derive_seed(config.seed, stream, shard.benchmark),
        n_domains=config.n_domains,
    )
    hv.reset()
    if shard.part == "free":
        items = _collect_free_part(hv, generator, shard, stream, step)
    else:
        items = _collect_inj_part(hv, config, generator, shard, stream, step)
    return [(shard.run_start + k, sample) for k, sample in enumerate(items)]


def collect_dataset(
    config: TrainingConfig,
    *,
    stream: str = "train",
    jobs: int = 1,
    journal_path: str | Path | None = None,
    resume: bool = False,
    telemetry: EngineTelemetry | None = None,
    retry: RetryPolicy | None = None,
    shard_timeout: float | None = None,
    chaos: ChaosPolicy | None = None,
) -> Dataset:
    """Collect one labeled dataset (pass a different ``stream`` for test).

    Collection runs on the campaign engine's run loop
    (:func:`~repro.engine.supervisor.run_shards`): the run is cut into one
    shard per ``(benchmark, part)`` pair (:func:`plan_training_shards`),
    executed inline when ``jobs=1``, over a process pool otherwise — with
    the engine's retry/backoff, watchdog and telemetry semantics.  With
    ``journal_path`` every finished shard is durably journalled
    (:class:`SampleJournal`) and ``resume=True`` finishes a killed
    collection, re-running only the missing shards.  The merged dataset is
    bit-identical to a serial collection of the same seed, whatever the job
    count, supervision, or resume history.

    Unlike campaigns, a collection with quarantined shards raises
    :class:`EngineError` instead of returning degraded data — a silently
    truncated training set skews the class balance it exists to provide.
    """
    if jobs < 1:
        raise EngineError("jobs must be positive")
    if resume and journal_path is None:
        raise EngineError("resume requires a journal_path")
    shards = plan_training_shards(
        config.benchmarks, config.fault_free_runs, config.injection_runs
    )
    telemetry = telemetry or EngineTelemetry()
    journal: SampleJournal | None = None
    if journal_path is not None:
        journal = SampleJournal.open(
            journal_path, digest=training_digest(config, stream),
            n_shards=len(shards), total_trials=sum(s.n_runs for s in shards),
            resume=resume,
        )
    done, failures = run_shards(
        config,
        shards,
        execute=functools.partial(execute_training_shard, stream=stream),
        telemetry=telemetry,
        journal=journal,
        jobs=jobs,
        retry=retry,
        shard_timeout=shard_timeout,
        chaos=chaos,
    )
    if failures:
        detail = "; ".join(
            f"shard {i} ({shards[i].benchmark}/{shards[i].part}): "
            f"{f.last.kind} after {len(f.attempts)} attempts"
            for i, f in sorted(failures.items())
        )
        raise EngineError(
            f"training collection lost {len(failures)}/{len(shards)} shards "
            f"to quarantine — a truncated dataset would skew the class "
            f"balance, refusing to return it ({detail})"
        )
    samples: list[tuple[int, ...]] = []
    labels: list[int] = []
    for index in sorted(done):
        for _, (features, label) in sorted(done[index]):
            samples.append(features)
            labels.append(label)
    telemetry.finish()
    return Dataset.from_samples(samples, labels)


@dataclass(frozen=True)
class TrainedModel:
    """A trained classifier with its held-out evaluation.

    ``rules`` is the classifier lowered to a flat comparison table
    (:func:`repro.ml.export.compile_tree`) — the deployable artifact, and
    the one evaluation runs through (vectorized batch traversal).
    """

    name: str
    classifier: DecisionTreeClassifier
    train_set: Dataset
    test_set: Dataset
    confusion: ConfusionMatrix
    rules: CompiledRules | None = None

    @property
    def accuracy(self) -> float:
        return self.confusion.accuracy

    @property
    def false_positive_rate(self) -> float:
        return self.confusion.false_positive_rate

    def report(self) -> str:
        return "\n".join(
            [
                f"[{self.name}]",
                f"  train: {self.train_set.describe()}",
                f"  test:  {self.test_set.describe()}",
                self.confusion.report(self.name),
            ]
        )


def train_and_evaluate(
    train_set: Dataset,
    test_set: Dataset,
    *,
    algorithm: str = "random_tree",
    seed: int = 0,
    max_depth: int = 32,
    min_samples_leaf: int = 1,
    incorrect_oversample: int = 3,
) -> TrainedModel:
    """Fit one tree algorithm and evaluate it on the held-out set.

    ``incorrect_oversample`` weights the minority (incorrect) class during
    induction; the default lands near the paper's 0.7% false-positive
    operating point.
    """
    if algorithm == "random_tree":
        classifier: DecisionTreeClassifier = RandomTreeClassifier(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf, seed=seed
        )
    elif algorithm == "decision_tree":
        classifier = DecisionTreeClassifier(
            max_depth=max_depth, min_samples_leaf=min_samples_leaf
        )
    else:
        raise CampaignConfigError(
            f"unknown algorithm {algorithm!r} (random_tree or decision_tree)"
        )
    classifier.fit(train_set.oversampled(INCORRECT, incorrect_oversample))
    # Evaluate through the compiled batch path — the deployable artifact is
    # what gets scored, and the batch traversal is bit-identical to the
    # per-row tree walk (property-tested), just vectorized.
    rules = compile_tree(classifier)
    confusion = evaluate(test_set.y, rules.predict_batch(test_set.X))
    return TrainedModel(
        name=algorithm,
        classifier=classifier,
        train_set=train_set,
        test_set=test_set,
        confusion=confusion,
        rules=rules,
    )
