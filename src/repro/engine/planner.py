"""Deterministic shard planning for campaign execution.

A campaign is a flat sequence of *golden groups* — ``injections_per_golden``
trials sharing one fault-free run — laid out benchmark by benchmark in the
exact order :meth:`FaultInjectionCampaign.run` executes them.  The planner
cuts that sequence into ``n_shards`` contiguous chunks.  Because every
group's fault stream is derived from ``(seed, benchmark, mode, group)``
(see :func:`repro.faults.campaign.run_benchmark_groups`), each chunk can be
executed in any process at any time and still produce exactly the trials the
serial run would have produced at those positions: merging shards by trial
index reconstructs the serial record sequence bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.errors import CampaignConfigError
from repro.faults.campaign import CampaignConfig, benchmark_geometry

__all__ = [
    "BenchmarkSlice",
    "CampaignPlan",
    "ShardPlan",
    "TrainingShard",
    "config_digest",
    "payload_digest",
    "plan_campaign",
    "plan_training_shards",
]

PLAN_FORMAT = "xentry-plan-v1"


def payload_digest(payload: dict) -> str:
    """Stable fingerprint of a JSON-able identity payload.

    The shared hashing primitive behind :func:`config_digest` and the
    training-collection digest: canonical JSON (sorted keys, no whitespace)
    hashed with blake2b, so two payloads digest equal iff they describe the
    same planned work.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def config_digest(config: CampaignConfig) -> str:
    """Stable fingerprint of everything that shapes a campaign's trials.

    Two configs with the same digest produce the same trial sequence; the
    journal stores it so a resume against a different campaign is rejected
    instead of silently merging unrelated records.
    """
    payload = {
        "format": PLAN_FORMAT,
        "benchmarks": list(config.benchmarks),
        "mode": config.mode.value,
        "n_injections": config.n_injections,
        "seed": config.seed,
        "n_domains": config.n_domains,
        "warmup_activations": config.warmup_activations,
        "injections_per_golden": config.injections_per_golden,
        "followup_activations": config.followup_activations,
        "fault_registers": list(config.fault_model.registers),
        "fault_bits": list(config.fault_model.bits),
        # The engine's supervision knobs (RetryPolicy, shard_timeout,
        # ChaosPolicy) live on CampaignEngine rather than the config and
        # must stay out of this payload: records are invariant under
        # retries and injected engine faults, so a journal from a chaos run
        # resumes interchangeably with a clean one.
        # config.artifacts is likewise absent: the golden artifact cache
        # trades capture for load under a bit-identity contract (cold, warm
        # or absent, the records match), so journals interoperate across
        # cache settings.  The cache has its own identity —
        # repro.artifacts.store.golden_digest — which DOES include the
        # campaign's LADDER_INTERVAL, because rung placement shapes the
        # cached artifact even though it never shapes records.
    }
    # Recovery DOES change the records (detected trials grow a
    # RecoveryRecord), so it must enter the digest — but only when armed,
    # so every pre-recovery journal digest stays valid.
    if config.recover is not None:
        payload["recover"] = config.recover
        payload["recovery_hazard"] = config.recovery_hazard
    # A scenario replaces the group fault stream with per-trial composite
    # sampling and can reshape workloads, so its identity enters the digest —
    # but only when armed, keeping every scenario-less digest unchanged.
    if config.scenario is not None:
        payload["scenario"] = config.scenario.digest_payload()
    return payload_digest(payload)


@dataclass(frozen=True)
class BenchmarkSlice:
    """A contiguous run of golden groups of one benchmark inside a shard."""

    benchmark: str
    #: Position of the benchmark in ``config.benchmarks`` (serial order).
    benchmark_index: int
    group_start: int
    group_stop: int
    #: Global index (into the serial record sequence) of this slice's first trial.
    trial_start: int
    n_trials: int


@dataclass(frozen=True)
class ShardPlan:
    """One independently executable chunk of a campaign."""

    index: int
    slices: tuple[BenchmarkSlice, ...]

    @property
    def n_trials(self) -> int:
        """Trials this shard will execute."""
        return sum(s.n_trials for s in self.slices)

    @property
    def trial_start(self) -> int:
        """Global index of the shard's first trial."""
        return self.slices[0].trial_start if self.slices else 0


@dataclass(frozen=True)
class CampaignPlan:
    """A campaign cut into shards, plus the identity needed to resume it."""

    config: CampaignConfig
    shards: tuple[ShardPlan, ...]
    digest: str

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    @property
    def total_trials(self) -> int:
        """Trials across all shards (== the serial campaign's record count)."""
        return sum(s.n_trials for s in self.shards)


def plan_campaign(config: CampaignConfig, n_shards: int) -> CampaignPlan:
    """Split ``config`` into ``n_shards`` contiguous, balanced shards.

    ``n_shards`` is clamped to the number of golden groups (a shard must own
    at least one group).  The partition is deterministic in the config alone,
    so re-planning on resume reproduces the exact shard boundaries recorded
    in the journal.
    """
    if n_shards < 1:
        raise CampaignConfigError("n_shards must be positive")
    geo = benchmark_geometry(config)
    # Flatten all golden groups in serial execution order.
    flat: list[tuple[str, int, int, int, int]] = []  # (bench, bidx, group, trial_start, n)
    trial = 0
    for bidx, benchmark in enumerate(config.benchmarks):
        for g in range(geo.n_goldens):
            n = geo.group_trials(g)
            flat.append((benchmark, bidx, g, trial, n))
            trial += n
    n_shards = min(n_shards, len(flat))
    shards: list[ShardPlan] = []
    for k in range(n_shards):
        lo = (k * len(flat)) // n_shards
        hi = ((k + 1) * len(flat)) // n_shards
        slices: list[BenchmarkSlice] = []
        for benchmark, bidx, g, t0, n in flat[lo:hi]:
            last = slices[-1] if slices else None
            if (
                last is not None
                and last.benchmark_index == bidx
                and last.group_stop == g
            ):
                slices[-1] = BenchmarkSlice(
                    benchmark=last.benchmark,
                    benchmark_index=last.benchmark_index,
                    group_start=last.group_start,
                    group_stop=g + 1,
                    trial_start=last.trial_start,
                    n_trials=last.n_trials + n,
                )
            else:
                slices.append(
                    BenchmarkSlice(
                        benchmark=benchmark,
                        benchmark_index=bidx,
                        group_start=g,
                        group_stop=g + 1,
                        trial_start=t0,
                        n_trials=n,
                    )
                )
        shards.append(ShardPlan(index=k, slices=tuple(slices)))
    return CampaignPlan(config=config, shards=tuple(shards), digest=config_digest(config))


# -- training-collection shards ------------------------------------------------

#: The two independent sample streams of one benchmark's collection.
TRAINING_PARTS = ("free", "inj")


@dataclass(frozen=True)
class TrainingShard:
    """One independently executable chunk of a training-set collection.

    A collection run is cut per ``(benchmark, part)`` pair — the fault-free
    activation stream and the injection stream each start from a freshly
    reset hypervisor and draw from their own named RNG streams, so every
    shard can run in any process at any time and produce exactly the samples
    the serial collection would have produced at that position.  Shards are
    ordered benchmark-major, ``free`` before ``inj``, matching the serial
    loop; concatenating shard outputs by index reconstructs the serial
    sample sequence bit for bit.
    """

    index: int
    benchmark: str
    #: Position of the benchmark in the config's benchmark tuple.
    benchmark_index: int
    #: ``"free"`` (fault-free stream) or ``"inj"`` (injection stream).
    part: str
    #: Activations this shard will execute (samples produced may be fewer:
    #: exception-killed and data-only-divergent injections yield none).
    n_runs: int
    #: Global index of this shard's first activation; samples are journalled
    #: at ``run_start + k`` so indices are unique and ordered across shards.
    run_start: int = 0

    @property
    def n_trials(self) -> int:
        """Planned work units — the supervisor/telemetry progress protocol."""
        return self.n_runs


def plan_training_shards(
    benchmarks: tuple[str, ...], fault_free_runs: int, injection_runs: int
) -> tuple[TrainingShard, ...]:
    """Cut a training collection into per-(benchmark, part) shards.

    Run counts are divided per benchmark exactly as the serial collector
    divides them (floor division, minimum one), so the plan is the single
    source of truth for both execution paths.
    """
    if not benchmarks:
        raise CampaignConfigError("training plan needs at least one benchmark")
    per_free = max(1, fault_free_runs // len(benchmarks))
    per_inj = max(1, injection_runs // len(benchmarks))
    shards = []
    run_start = 0
    for bidx, benchmark in enumerate(benchmarks):
        for part in TRAINING_PARTS:
            n_runs = per_free if part == "free" else per_inj
            shards.append(
                TrainingShard(
                    index=len(shards),
                    benchmark=benchmark,
                    benchmark_index=bidx,
                    part=part,
                    n_runs=n_runs,
                    run_start=run_start,
                )
            )
            run_start += n_runs
    return tuple(shards)
