"""The campaign engine: parallel, resumable, observable, *self-resilient*.

:class:`CampaignEngine` turns a :class:`CampaignConfig` into a plan of
deterministic shards (:mod:`repro.engine.planner`), hands them to the
engine's run loop (:func:`~repro.engine.supervisor.run_shards`), whose
:class:`~repro.engine.supervisor.ShardSupervisor` fans them out over a
``concurrent.futures`` process pool (or runs them inline when ``jobs=1``)
with retry, watchdog and quarantine semantics, journals every finished shard
durably (:mod:`repro.engine.journal`), and narrates progress through
:mod:`repro.engine.telemetry`.  The merged result is bit-identical to
:meth:`FaultInjectionCampaign.run` with the same seed — including runs that
needed retries — and a campaign killed mid-flight resumes from its journal
with completed shards skipped.  A campaign whose shards exhaust their retry
budget completes *degraded* (:class:`DegradedCampaignResult`) instead of
aborting mid-run.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from repro.engine.chaos import ChaosPolicy
from repro.engine.journal import TrialJournal
from repro.engine.planner import CampaignPlan, ShardPlan, plan_campaign
from repro.engine.supervisor import (
    DegradedCampaignResult,
    RetryPolicy,
    ShardFailure,
    merge_records,
    run_shards,
)
from repro.engine.telemetry import EngineTelemetry
from repro.errors import EngineError
from repro.faults.campaign import (
    CampaignConfig,
    CampaignResult,
    run_benchmark_groups,
)
from repro.faults.injector import TransitionDetector
from repro.faults.outcomes import TrialRecord
from repro.hypervisor.xen import XenHypervisor

__all__ = ["CampaignEngine", "execute_shard"]


def execute_shard(
    config: CampaignConfig,
    shard: ShardPlan,
    detector: TransitionDetector | None = None,
    step: Callable[[TrialRecord], None] | None = None,
) -> list[tuple[int, TrialRecord]]:
    """Run every slice of ``shard``; return its ``(trial index, record)`` pairs.

    Module-level so a process pool can pickle it; workers rebuild their own
    hypervisor from the config (bit-identical to the serial campaign's, which
    resets to post-boot state before each benchmark anyway) and read cached
    goldens straight from the config's artifact store.  ``step`` is called
    after every record (the supervisor's chaos tripwire).
    """
    hv = XenHypervisor(n_domains=config.n_domains, seed=config.seed)
    out: list[tuple[int, TrialRecord]] = []
    for s in shard.slices:
        records = run_benchmark_groups(
            config, s.benchmark, s.group_start, s.group_stop,
            hv=hv, detector=detector, on_record=step,
        )
        out.extend(enumerate(records, start=s.trial_start))
    return out


class CampaignEngine:
    """Executes a fault-injection campaign as supervised, resumable shards.

    Parameters
    ----------
    config:
        The campaign to run; also defines the shard boundaries and digest.
    jobs:
        Worker processes.  ``1`` (default) runs shards inline in this
        process — same results, no pool overhead.
    n_shards:
        Shard count; defaults to ``jobs`` (one chunk per worker).  More
        shards mean finer resume granularity and better load balancing.
    detector:
        Optional VM-transition detector deployed during trials.  It is
        pickled into each worker, so per-process traversal statistics stay
        in the workers; trial records are unaffected (classification is a
        pure function of the compiled rules).
    journal_path:
        Where to journal finished shards.  Required for ``resume=True``.
        A run manifest is written next to it as ``<journal>.manifest.json``
        — even when the run fails mid-flight.
    telemetry:
        An :class:`EngineTelemetry` to narrate into; a fresh silent one is
        created when omitted.
    retry:
        Per-shard retry budget and deterministic backoff schedule; defaults
        to :class:`RetryPolicy` seeded from the campaign seed.  Exhausting
        the budget quarantines the shard and degrades the campaign instead
        of aborting it.
    shard_timeout:
        Wall-clock seconds a shard attempt may run before the pool watchdog
        reclaims it (pool mode only; ``None`` disables the watchdog).
    chaos:
        Optional :class:`ChaosPolicy` injecting deterministic engine-level
        faults — the harness that proves the recovery paths work.  Like the
        retry/timeout knobs, chaos never enters the config digest: records
        are invariant under supervision, so journals interoperate freely.
    """

    def __init__(
        self,
        config: CampaignConfig,
        *,
        jobs: int = 1,
        n_shards: int | None = None,
        detector: TransitionDetector | None = None,
        journal_path: str | Path | None = None,
        telemetry: EngineTelemetry | None = None,
        retry: RetryPolicy | None = None,
        shard_timeout: float | None = None,
        chaos: ChaosPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise EngineError("jobs must be positive")
        self.config = config
        self.jobs = jobs
        self.n_shards = n_shards if n_shards is not None else jobs
        self.detector = detector
        self.journal_path = Path(journal_path) if journal_path else None
        self.telemetry = telemetry or EngineTelemetry()
        self.retry = retry or RetryPolicy(seed=config.seed)
        self.shard_timeout = shard_timeout
        self.chaos = chaos

    # -- execution -----------------------------------------------------------

    def run(self, *, resume: bool = False) -> CampaignResult:
        """Execute (or finish) the campaign and return the merged result.

        Returns a plain :class:`CampaignResult` when every shard completed,
        or a :class:`DegradedCampaignResult` when shards were quarantined.
        """
        if resume and self.journal_path is None:
            raise EngineError("resume requires a journal_path")
        plan = plan_campaign(self.config, self.n_shards)
        journal: TrialJournal | None = None
        if self.journal_path is not None:
            journal = TrialJournal.open(
                self.journal_path, digest=plan.digest, n_shards=plan.n_shards,
                total_trials=plan.total_trials, resume=resume,
            )
            if journal.state.n_shards != plan.n_shards:
                # The journal's shard structure wins: resuming with a
                # different --jobs must not reshuffle shard boundaries.
                plan = plan_campaign(self.config, journal.state.n_shards)
        done, failures = run_shards(
            self.config,
            plan.shards,
            execute=execute_shard,
            telemetry=self.telemetry,
            journal=journal,
            jobs=self.jobs,
            detector=self.detector,
            retry=self.retry,
            shard_timeout=self.shard_timeout,
            chaos=self.chaos,
        )
        result = self._merge(plan, done, failures)
        self.telemetry.finish(quarantined=len(failures))
        return result

    def _merge(
        self,
        plan: CampaignPlan,
        done: dict[int, list[tuple[int, TrialRecord]]],
        failures: dict[int, ShardFailure],
    ) -> CampaignResult:
        by_trial = merge_records(done)
        if failures:
            expected = plan.total_trials - sum(
                plan.shards[i].n_trials for i in failures
            )
            if len(by_trial) != expected:
                raise EngineError(
                    f"degraded merge inconsistent: {len(by_trial)} trials for "
                    f"{expected} expected outside quarantined shards"
                )
            records = tuple(record for _, record in sorted(by_trial.items()))
            return DegradedCampaignResult(
                config=self.config,
                records=records,
                planned_trials=plan.total_trials,
                n_shards=plan.n_shards,
                failures=tuple(failures[i] for i in sorted(failures)),
            )
        if len(by_trial) != plan.total_trials:
            missing = sorted(set(range(plan.total_trials)) - set(by_trial))[:5]
            raise EngineError(
                f"merge incomplete: {len(by_trial)}/{plan.total_trials} trials "
                f"(first missing: {missing})"
            )
        records = tuple(by_trial[t] for t in range(plan.total_trials))
        return CampaignResult(config=self.config, records=records)
