"""Fault-injection campaign orchestration.

A campaign reproduces the paper's Section V methodology: for each benchmark,
activations are drawn from the workload's exit-reason mix, and one single-bit
register flip is injected per run at a random dynamic instruction of the
hypervisor execution.  The paper runs 30,000 injections of which ~17,700
manifest; campaign size here is a parameter so tests stay fast and benchmarks
can scale up.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import rng as rng_mod
from repro.counters import LEDGER
from repro.errors import CampaignConfigError
from repro.faults.injector import TransitionDetector, run_twin_batch, trace_plan
from repro.faults.model import FaultModel
from repro.faults.outcomes import TrialRecord
from repro.faults.propagation import capture_golden
from repro.hypervisor.xen import XenHypervisor
from repro.workloads.base import VirtMode
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.suite import BENCHMARK_NAMES, get_profile

if TYPE_CHECKING:  # import cycle: repro.scenarios.spec imports repro.faults
    from repro.scenarios.spec import Scenario

__all__ = [
    "BenchmarkGeometry",
    "CampaignConfig",
    "CampaignResult",
    "FaultInjectionCampaign",
    "LADDER_INTERVAL",
    "benchmark_geometry",
    "run_benchmark_groups",
]

#: Dynamic-instruction spacing of each golden run's mid-run checkpoint
#: ladder: faulty runs fast-forward to the rung at-or-before their injection
#: index, and microreboot recovery rolls back to one.  Records are invariant
#: under it (0 would disable the ladder); the artifact digest keys on it,
#: because rung placement is part of a cached golden.
LADDER_INTERVAL = 32


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one injection campaign."""

    benchmarks: tuple[str, ...] = BENCHMARK_NAMES
    mode: VirtMode = VirtMode.PV
    n_injections: int = 3_000
    seed: int = 0
    n_domains: int = 3
    #: Activations executed once per benchmark to age the machine state
    #: before trials begin ("when applications are running", Section V.B).
    warmup_activations: int = 5
    #: Injections sharing one golden run (amortizes the fault-free twin).
    injections_per_golden: int = 4
    #: Activations executed *after* the injected one, continuing the
    #: simulation so latent corruption can be detected when consumed
    #: (Section V.B: "After a fault is injected, we allow the simulation to
    #: continue to observe if it can be detected").
    followup_activations: int = 8
    fault_model: FaultModel = field(default_factory=FaultModel)
    #: Recovery policy name (``repro.xentry.recovery_policy.POLICIES``):
    #: every *detected* trial runs the policy's escalation ladder and its
    #: record carries a :class:`~repro.faults.outcomes.RecoveryRecord`.
    #: None (the default) keeps the paper's detection-only campaign.
    #: *Included* in the config digest when set — recovery changes records.
    recover: str | None = None
    #: Probability that a second soft error strikes *during* a recovery
    #: attempt (drawn from a dedicated per-(trial, attempt) stream, so
    #: campaigns stay bit-reproducible).  Only meaningful with ``recover``.
    recovery_hazard: float = 0.0
    #: Declarative scenario (:mod:`repro.scenarios`): a composite fault
    #: mixture plus optional per-benchmark workload overrides.  When set,
    #: each trial's fault is drawn from the scenario's per-trial named
    #: stream instead of ``fault_model``'s per-group stream.  *Included*
    #: in the config digest when set — it changes records.  Degenerate
    #: single-bit scenarios never reach here: ``Scenario.apply`` normalizes
    #: them onto ``fault_model`` so they take the legacy path byte-for-byte.
    scenario: "Scenario | None" = None
    #: Root directory of the content-addressed golden artifact store
    #: (:mod:`repro.artifacts`).  Golden groups found there are loaded
    #: instead of captured live, and live captures are published back for
    #: the next run.  ``None`` (the default) captures every golden live.
    #: Excluded from the config digest: records are byte-identical with the
    #: cache cold, warm, shared, or absent.
    artifacts: str | None = None

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise CampaignConfigError("campaign needs at least one benchmark")
        if self.n_injections < 1:
            raise CampaignConfigError("n_injections must be positive")
        if self.injections_per_golden < 1:
            raise CampaignConfigError("injections_per_golden must be positive")
        if self.followup_activations < 0:
            raise CampaignConfigError("followup_activations must be non-negative")
        if not 0.0 <= self.recovery_hazard < 1.0:
            raise CampaignConfigError("recovery_hazard must be in [0, 1)")
        if self.recover is not None:
            # Validate the name eagerly (lazy import: repro.xentry pulls in
            # the training stack, which imports this module).
            from repro.xentry.recovery_policy import policy_from_name

            policy_from_name(self.recover)


@dataclass(frozen=True)
class CampaignResult:
    """All trial records of a finished campaign."""

    config: CampaignConfig
    records: tuple[TrialRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def degraded(self) -> bool:
        """True when shards were quarantined and ``records`` is incomplete.

        Always False here; the engine's ``DegradedCampaignResult`` overrides
        it, so callers can branch on ``result.degraded`` uniformly.
        """
        return False

    @property
    def manifested(self) -> tuple[TrialRecord, ...]:
        """Trials whose fault caused a failure or data corruption — the
        denominator of every coverage number in the paper."""
        return tuple(r for r in self.records if r.manifested)

    @property
    def activated(self) -> tuple[TrialRecord, ...]:
        return tuple(r for r in self.records if r.activated)

    def for_benchmark(self, name: str) -> tuple[TrialRecord, ...]:
        return tuple(r for r in self.records if r.benchmark == name)


@dataclass(frozen=True)
class BenchmarkGeometry:
    """Trial-loop shape shared by serial runs and sharded engine slices.

    Every number a shard planner or a worker needs to agree with the serial
    trial loop lives here; both sides derive it from the config alone so the
    group boundaries (and hence the fault streams) always line up.
    """

    #: Trials executed for each benchmark of the campaign.
    per_benchmark: int
    #: Golden runs per benchmark (each amortized over ``injections_per_golden``).
    n_goldens: int
    #: Activations consumed per golden group (1 injected + follow-ups).
    stride: int
    #: Trials sharing one golden run (the last group of a benchmark may be short).
    injections_per_golden: int

    def group_trials(self, group: int) -> int:
        """Number of trials in golden group ``group`` (the last may be short)."""
        if not 0 <= group < self.n_goldens:
            raise CampaignConfigError(f"group {group} outside [0, {self.n_goldens})")
        return min(
            self.injections_per_golden,
            self.per_benchmark - group * self.injections_per_golden,
        )


def benchmark_geometry(config: CampaignConfig) -> BenchmarkGeometry:
    """Compute the per-benchmark trial-loop geometry for ``config``."""
    per_benchmark = max(1, config.n_injections // len(config.benchmarks))
    n_goldens = -(-per_benchmark // config.injections_per_golden)
    return BenchmarkGeometry(
        per_benchmark=per_benchmark,
        n_goldens=n_goldens,
        stride=1 + config.followup_activations,
        injections_per_golden=config.injections_per_golden,
    )


def run_benchmark_groups(
    config: CampaignConfig,
    benchmark: str,
    group_start: int,
    group_stop: int,
    *,
    hv: XenHypervisor | None = None,
    detector: TransitionDetector | None = None,
    on_record: Callable[[TrialRecord], None] | None = None,
) -> list[TrialRecord]:
    """Execute golden groups ``[group_start, group_stop)`` of one benchmark.

    This is the engine-drivable unit of work: the serial campaign runs every
    group of every benchmark through it, and a sharded engine runs disjoint
    group ranges in separate processes.  Each fault stream is derived from
    ``(seed, benchmark, mode, group)``, so any contiguous slice reproduces
    exactly the trials the serial run would produce for those groups —
    merged shards are bit-identical to a serial run of the same root seed.

    Each group captures its golden run and lowers it to a
    :class:`~repro.machine.lockstep.TwinPlan` in one step — or, with
    ``config.artifacts`` set, loads both from the artifact store
    (:class:`repro.artifacts.runtime.GoldenSource`), in the serial campaign
    and in every pool worker alike — then settles its trials as one
    :func:`~repro.faults.injector.run_twin_batch`.  The warmup burst always
    runs live because it ages the machine the *trials* then perturb.
    Records are byte-identical either way: golden products are a pure
    function of the digest the store keys them by, and every trial restores
    captured state before executing.
    """
    # Lazy import: repro.artifacts.store imports this module for the config
    # and geometry types.
    from repro.artifacts.runtime import golden_source_for

    geo = benchmark_geometry(config)
    if not 0 <= group_start <= group_stop <= geo.n_goldens:
        raise CampaignConfigError(
            f"group range [{group_start}, {group_stop}) outside "
            f"[0, {geo.n_goldens}] for benchmark {benchmark!r}"
        )
    golden_source = golden_source_for(config)
    if hv is None:
        hv = XenHypervisor(n_domains=config.n_domains, seed=config.seed)
    profile = get_profile(benchmark)
    if config.scenario is not None:
        profile = config.scenario.profile_for(profile)
    generator = WorkloadGenerator(
        profile, config.mode,
        seed=rng_mod.derive_seed(config.seed, "campaign", benchmark),
        n_domains=config.n_domains,
    )
    # Age the platform state with a short activation burst.
    hv.reset()
    for act in generator.activations(config.warmup_activations, stream="warmup"):
        hv.execute(act)
    aged_state = hv.checkpoint()
    executor = None
    recover_hook = None
    if config.recover is not None:
        # Lazy import: repro.xentry pulls in the training stack, which
        # imports this module.
        from repro.xentry.recovery_policy import RecoveryExecutor, policy_from_name

        executor = RecoveryExecutor(
            hv,
            policy_from_name(config.recover),
            seed=config.seed,
            benchmark=benchmark,
            mode=config.mode.value,
            fault_model=config.fault_model,
            hazard_rate=config.recovery_hazard,
        )
        # The per-VM-exit critical copy: the aged pre-run state is live
        # right now and identical for every group of this benchmark.
        executor.arm()

        def recover_hook(record: TrialRecord, index: int) -> TrialRecord:
            if not record.detected:
                return record
            return dataclasses.replace(
                record, recovery=executor.recover(record, index)
            )

    # The activation stream is one bulk draw; regenerating it in full keeps
    # every slice's view of group g identical to the serial run's.
    stream = generator.activations(geo.n_goldens * geo.stride)
    records: list[TrialRecord] = []
    for g in range(group_start, group_stop):
        batch = geo.group_trials(g)
        if batch <= 0:
            break
        activation = stream[g * geo.stride]
        followups = tuple(stream[g * geo.stride + 1 : (g + 1) * geo.stride])
        payload = (
            golden_source.acquire(benchmark, g, registry=hv.registry)
            if golden_source is not None
            else None
        )
        if payload is not None:
            # Served from the artifact cache: no golden execution, no trace
            # replay.  ``plan`` may legitimately be None (the live capture's
            # replay refused to line up) — the twins then peel, exactly as
            # they would have live.
            golden, plan = payload.golden, payload.plan
        else:
            hv.restore(aged_state)
            started = time.perf_counter()
            golden = capture_golden(
                hv, activation, followups, ladder_interval=LADDER_INTERVAL
            )
            plan = trace_plan(hv, activation, golden)
            LEDGER["golden_capture_seconds"] += time.perf_counter() - started
            if golden_source is not None:
                golden_source.offer(benchmark, g, golden, plan)
        if executor is not None:
            executor.begin_group(g, activation, golden)
        if config.scenario is None:
            fault_rng = rng_mod.stream(
                config.seed, "faults", benchmark, config.mode.value, g
            )
            # The whole group's faults are drawn up front (3 draws each).
            faults = [
                config.fault_model.sample(fault_rng, golden.result.instructions)
                for _ in range(batch)
            ]
        else:
            # Scenario faults come from per-trial streams — pure in
            # (seed, benchmark, mode, group, trial) — so any slice, shard
            # or single-trial re-draw matches the serial run exactly.
            faults = [
                config.scenario.sample_trial(
                    config.seed, benchmark, config.mode.value, g, t,
                    run_length=golden.result.instructions,
                    layout=hv.layout,
                )
                for t in range(batch)
            ]
        records.extend(
            run_twin_batch(
                hv,
                activation,
                faults,
                detector=detector,
                golden=golden,
                benchmark=benchmark,
                followups=followups,
                on_record=on_record,
                recover=recover_hook,
                plan=plan,
            )
        )
    return records


class FaultInjectionCampaign:
    """Runs golden/faulty trial pairs across the benchmark suite.

    The single-process reference: one hypervisor, every benchmark in order.
    The CLI runs campaigns on :class:`~repro.engine.pool.CampaignEngine`,
    whose records are bit-identical to this class's.
    """

    def __init__(
        self,
        config: CampaignConfig,
        *,
        detector: TransitionDetector | None = None,
        hypervisor: XenHypervisor | None = None,
    ) -> None:
        self.config = config
        self.detector = detector
        self.hv = hypervisor or XenHypervisor(
            n_domains=config.n_domains, seed=config.seed
        )

    def run(self) -> CampaignResult:
        """Execute the campaign; deterministic in the config seed."""
        cfg = self.config
        geo = benchmark_geometry(cfg)
        records: list[TrialRecord] = []
        for benchmark in cfg.benchmarks:
            records.extend(
                run_benchmark_groups(
                    cfg, benchmark, 0, geo.n_goldens,
                    hv=self.hv, detector=self.detector,
                )
            )
        return CampaignResult(config=cfg, records=tuple(records))
