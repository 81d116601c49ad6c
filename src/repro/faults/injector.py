"""Single-trial fault injection.

One *trial* executes the same activation twice from identical machine state —
fault-free, then with a scheduled single-bit register flip — and reduces the
pair to a :class:`~repro.faults.outcomes.TrialRecord`:

* a hardware exception or failed software assertion during the faulty run is
  a **runtime detection** (short detection latency, Fig. 10);
* a faulty run that reaches VM entry is shown to the optional **transition
  detector** (anything with a ``flags_incorrect(features)`` predicate, e.g.
  compiled tree rules);
* divergence against the golden run yields the ground-truth consequence
  (Fig. 9) and, for missed faults, the Table II attribution.
"""

from __future__ import annotations

from typing import Protocol

from repro.counters import LEDGER
from repro.errors import SimulationLimitExceeded
from repro.faults.outcomes import (
    BurstFaultSpec,
    DetectionTechnique,
    FailureClass,
    FaultSpec,
    MemoryFaultSpec,
    MultiBitFaultSpec,
    TrialRecord,
    UndetectedKind,
)
from repro.faults.propagation import (
    GoldenRun,
    capture_golden,
    classify_divergence,
    compute_divergence,
    undetected_kind_for,
)
from repro.hypervisor.xen import Activation, XenHypervisor
from repro.machine import lockstep
from repro.machine.exceptions import AssertionViolation, HardwareException, classify_exception

__all__ = [
    "PLAN_UNSET",
    "TransitionDetector",
    "run_trial",
    "run_burst_trial",
    "run_memory_trial",
    "run_spec_trial",
    "run_twin_batch",
    "trace_plan",
]

#: Sentinel for :func:`run_twin_batch`'s ``plan`` parameter: "compute the
#: TwinPlan yourself".  Distinct from ``None``, which is a *known* answer —
#: the trace replay refused to classify and every twin must peel.
PLAN_UNSET = object()


class TransitionDetector(Protocol):
    """Anything usable as the VM-transition classifier in a trial."""

    def flags_incorrect(self, features: tuple[int, ...]) -> bool: ...


def run_trial(
    hv: XenHypervisor,
    activation: Activation,
    fault: FaultSpec | MultiBitFaultSpec,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
    read_point: int | None = None,
) -> TrialRecord:
    """Execute one golden/faulty pair and classify the outcome.

    ``golden`` may be supplied to amortize the fault-free run across several
    injections into the same activation; it must have been captured from the
    current machine state (with the same ``followups``).

    ``followups`` continues the simulation past the injected activation, the
    way the paper's Simics campaign does: corrupted state that survived the
    first VM entry is detected when a later hypervisor execution consumes it
    (a fatal exception, a failed assertion, or a transition-feature anomaly),
    with the detection latency accumulating across activations.

    ``read_point`` (from the lock-step batch scan) asserts that the golden
    run neither reads nor writes the flipped register between the injection
    index and that dynamic index: the resume may then fast-forward to the
    ladder rung at-or-before the *read point* and re-apply the flip to the
    restored golden register value — bit-identical to flipping at the
    injection index, but skipping the shared prefix.
    """
    if golden is None:
        golden = capture_golden(hv, activation, followups)
    # Fast-forward: resume from the latest ladder rung at-or-before the
    # injection index (or the scan-proven read point) instead of re-executing
    # the golden prefix.  The flip cannot fire before the rung
    # (rung.index <= dynamic_index) and the prefix is deterministic, so the
    # faulty run is bit-identical either way.
    rung = _resume(
        hv, golden, fault.dynamic_index if read_point is None else read_point
    )
    if rung is not None and rung.index > fault.dynamic_index:
        # Past the injection index: the register still holds its golden
        # value here (the scan proved no access), so flip it now.
        LEDGER["read_ff_instructions"] += rung.index - fault.dynamic_index
        hv.cpu.arm_applied_flip(
            fault.dynamic_index, *fault.flips, known_activation=read_point
        )
    else:
        # ``read_point`` doubles as the analytically proven activation
        # index (the golden trace's first post-flip access is a read
        # there), letting the core skip the activation watch and keep the
        # whole window on the translated path.
        hv.cpu.schedule_flip(
            fault.dynamic_index, *fault.flips, known_activation=read_point
        )

    def _activation_index() -> int:
        report = hv.cpu.injection_report
        if report is not None and report.activation_index is not None:
            return report.activation_index
        return fault.dynamic_index

    def _activated() -> bool:
        report = hv.cpu.injection_report
        return bool(report is not None and report.applied and report.activated)

    return _execute_and_classify(
        hv, activation, fault, golden,
        detector=detector, benchmark=benchmark, followups=followups,
        activation_index=_activation_index, activated=_activated,
        resume=rung is not None,
    )


def _count_trial(skipped: int | None) -> None:
    """Fast-forward accounting for one trial that resumed ``skipped`` golden
    instructions in (``None``: replayed from the pre-run checkpoint)."""
    LEDGER["trials"] += 1
    if skipped is not None:
        LEDGER["fast_forwarded"] += 1
        LEDGER["instructions_skipped"] += skipped


def _resume(hv: XenHypervisor, golden: GoldenRun, target: int):
    """Restore the latest ladder rung at-or-before ``target`` (the pre-run
    checkpoint when there is none) and count the trial; returns the rung."""
    rung = None
    for candidate in golden.ladder:  # ascending by index
        if candidate.index > target:
            break
        rung = candidate
    if rung is not None:
        hv.restore_machine(rung)
    else:
        hv.restore(golden.checkpoint)
    _count_trial(None if rung is None else rung.index)
    return rung


def trace_plan(hv: XenHypervisor, activation: Activation, golden: GoldenRun):
    """Replay the golden activation once in full-trace mode and lower the
    address stream into a :class:`~repro.machine.lockstep.TwinPlan`.

    Returns ``None`` when the replay does not line up with the captured
    golden run (the scan refuses to classify against a mismatched trace;
    every twin then peels into the per-trial oracle path).

    Public because the campaign runs it in the same step as golden capture:
    the plan (or the ``None`` refusal — equally cacheable) is published
    with the golden products, and a warm run hands it straight to
    :func:`run_twin_batch` instead of replaying.
    """
    core = hv.cpu
    tracer = core.tracer
    was_light = tracer.light
    hv.restore(golden.checkpoint)
    core.clear_injection()
    tracer.light = False
    try:
        result = hv.execute(activation)
        addresses = list(tracer.addresses)
    finally:
        tracer.light = was_light
        if was_light:
            tracer.addresses.clear()
    if (
        result.instructions != golden.result.instructions
        or len(addresses) != result.instructions
    ):
        return None
    return lockstep.build_plan(hv.program, addresses)


def _classify_spec_twin(plan, fault):
    """Classify one twin for the lock-step batch, by fault class.

    Register and multi-bit faults use the position-column scan directly
    (one register, one injection index — multi-bit only widens the flipped
    mask, not the access pattern that decides liveness).  A burst is DEAD
    only if *every* flipped register is individually dead: until a faulty
    value is read, the faulty twin follows the golden control flow, so the
    per-register proofs compose.  A live burst peels with no read point —
    the single-register no-access proof does not cover its other flips.
    Memory faults always peel conservatively: the scan only tracks register
    liveness.
    """
    if plan is None or isinstance(fault, MemoryFaultSpec):
        return (lockstep.PEEL, None)
    if isinstance(fault, BurstFaultSpec):
        for register, _bit in fault.flips:
            kind, _ = lockstep.classify_twin(plan, register, fault.dynamic_index)
            if kind != lockstep.DEAD:
                return (lockstep.PEEL, None)
        return (lockstep.DEAD, None)
    return lockstep.classify_twin(plan, fault.register, fault.dynamic_index)


def run_twin_batch(
    hv: XenHypervisor,
    activation: Activation,
    faults,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
    on_record=None,
    recover=None,
    plan=PLAN_UNSET,
) -> list[TrialRecord]:
    """Execute every faulty twin of one golden group as a lock-step batch.

    Classifies each twin against the shared golden position columns
    (:mod:`repro.machine.lockstep`): *dead* twins — flip overwritten
    before the next read, or never touched again — synthesize their
    non-activated record without executing; diverging twins peel into
    :func:`run_trial`, fast-forwarded to their first-read point.  Record
    order matches the ``faults`` order, and every record is bit-identical
    to what per-trial execution would produce.

    ``recover`` is the campaign's recovery hook — called as
    ``recover(record, index)`` immediately after each trial settles (while
    the machine still holds that trial's post-faulty state) and may return
    a replacement record carrying the recovery outcome.  Dead twins were
    never detected, so the hook is a no-op for them, and every recovery
    attempt restores machine state itself — the following twin's trial is
    unperturbed either way.

    ``plan`` short-circuits the full-trace lowering: a caller holding the
    group's :class:`~repro.machine.lockstep.TwinPlan` (the campaign, from
    its capture step or the artifact cache) passes it here — including an
    explicit ``None`` for a trace-mismatch refusal.  Left at
    :data:`PLAN_UNSET`, the batch replays and lowers the trace itself.
    """
    if golden is None:
        golden = capture_golden(hv, activation, followups)
    faults = list(faults)
    if plan is PLAN_UNSET:
        plan = trace_plan(hv, activation, golden) if faults else None
    LEDGER["twin_batches"] += 1
    LEDGER["twins"] += len(faults)
    records: list[TrialRecord] = []
    for index, fault in enumerate(faults):
        kind, read_point = _classify_spec_twin(plan, fault)
        if kind == lockstep.DEAD:
            LEDGER["dead_twins"] += 1
            LEDGER["synthesized_instructions"] += golden.result.instructions
            # The whole faulty run is provably golden: account it as a
            # full-length fast-forward.
            _count_trial(golden.result.instructions)
            record = TrialRecord(
                benchmark=benchmark,
                vmer=activation.vmer,
                fault=fault,
                activated=False,
                failure_class=FailureClass.BENIGN,
                detected_by=DetectionTechnique.UNDETECTED,
                detection_latency=None,
                detail="non-activated",
            )
        else:
            LEDGER["peeled_twins"] += 1
            record = run_spec_trial(
                hv,
                activation,
                fault,
                detector=detector,
                golden=golden,
                benchmark=benchmark,
                followups=followups,
                read_point=read_point,
            )
        if recover is not None:
            record = recover(record, index)
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


def run_memory_trial(
    hv: XenHypervisor,
    activation: Activation,
    fault: "MemoryFaultSpec",
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
) -> TrialRecord:
    """Inject a single bit flip into hypervisor *memory* before an activation.

    Extension beyond the paper's register-only model: the paper scopes to CPU
    faults because "combinational logic circuits in CPU are usually not
    protected by ECC", noting that memory errors beyond ECC's correction
    capability still occur.  This models exactly that residual class — an
    uncorrected flip in a hypervisor structure, present when the activation
    begins.

    A memory fault is present from instruction 0 and has no register to
    watch; it counts as activated when the execution observably diverges.
    """
    if golden is None:
        golden = capture_golden(hv, activation, followups)
    # Memory faults are present from instruction 0, so there is no prefix to
    # skip: always replay from the pre-run checkpoint.
    _count_trial(None)
    hv.restore(golden.checkpoint)
    hv.cpu.clear_injection()
    original = hv.memory.read_u64(fault.address)
    hv.memory.write_u64(fault.address, original ^ (1 << fault.bit))

    return _execute_and_classify(
        hv, activation, fault, golden,
        detector=detector, benchmark=benchmark, followups=followups,
        activation_index=lambda: 0,
        activated=None,  # inferred from divergence
    )


def run_burst_trial(
    hv: XenHypervisor,
    activation: Activation,
    fault: BurstFaultSpec,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
) -> TrialRecord:
    """Inject a time-correlated fault storm: every flip of the burst strikes
    atomically at one dynamic instruction.

    A burst spans registers, so there is no single register to watch —
    activation is inferred from divergence, exactly like memory faults.
    The ladder fast-forward to the rung at-or-before the storm index is
    still sound: the shared prefix is fault-free either way.
    """
    if golden is None:
        golden = capture_golden(hv, activation, followups)
    rung = _resume(hv, golden, fault.dynamic_index)
    hv.cpu.schedule_flip(fault.dynamic_index, *fault.flips)

    return _execute_and_classify(
        hv, activation, fault, golden,
        detector=detector, benchmark=benchmark, followups=followups,
        activation_index=lambda: fault.dynamic_index,
        activated=None,  # inferred from divergence
        resume=rung is not None,
    )


def run_spec_trial(
    hv: XenHypervisor,
    activation: Activation,
    fault,
    *,
    detector: TransitionDetector | None = None,
    golden: GoldenRun | None = None,
    benchmark: str = "",
    followups: tuple[Activation, ...] = (),
    read_point: int | None = None,
) -> TrialRecord:
    """Dispatch one trial on the fault spec's class.

    The generic entry point the campaign and twin-batch paths use: register
    and multi-bit faults run through :func:`run_trial` (honoring the
    lock-step ``read_point``), bursts through :func:`run_burst_trial`, and
    memory faults through :func:`run_memory_trial` (both ignore
    ``read_point`` — neither has a per-register no-access proof).
    """
    if isinstance(fault, MemoryFaultSpec):
        return run_memory_trial(
            hv, activation, fault,
            detector=detector, golden=golden,
            benchmark=benchmark, followups=followups,
        )
    if isinstance(fault, BurstFaultSpec):
        return run_burst_trial(
            hv, activation, fault,
            detector=detector, golden=golden,
            benchmark=benchmark, followups=followups,
        )
    return run_trial(
        hv, activation, fault,
        detector=detector, golden=golden,
        benchmark=benchmark, followups=followups,
        read_point=read_point,
    )


def _execute_and_classify(
    hv: XenHypervisor,
    activation: Activation,
    fault,
    golden: GoldenRun,
    *,
    detector: TransitionDetector | None,
    benchmark: str,
    followups: tuple[Activation, ...],
    activation_index,
    activated,
    resume: bool = False,
) -> TrialRecord:
    """Run the prepared faulty activation and classify (shared trial core).

    With ``resume=True`` the machine already sits at a restored mid-run
    checkpoint, so only the activation's suffix executes.
    """
    _activation_index = activation_index
    try:
        faulty = hv.resume_execution(activation) if resume else hv.execute(activation)
    except HardwareException as exc:
        verdict = classify_exception(exc)
        latency = max(0, hv.cpu.tracer.count - _activation_index())
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=True,
            failure_class=FailureClass.HYPERVISOR_CRASH,
            detected_by=(
                DetectionTechnique.HW_EXCEPTION
                if verdict.fatal
                else DetectionTechnique.UNDETECTED
            ),
            detection_latency=latency if verdict.fatal else None,
            undetected_kind=None if verdict.fatal else UndetectedKind.OTHER_VALUES,
            detail=f"{exc.vector.name}: {verdict.reason}",
        )
    except AssertionViolation as exc:
        latency = max(0, hv.cpu.tracer.count - _activation_index())
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=True,
            failure_class=FailureClass.HYPERVISOR_CRASH,
            detected_by=DetectionTechnique.SW_ASSERTION,
            detection_latency=latency,
            detail=f"assertion {exc.assertion_id}",
        )
    except SimulationLimitExceeded:
        # A stuck host-mode execution trips the platform's NMI watchdog —
        # delivered as a hardware exception, hence a runtime detection.
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=True,
            failure_class=FailureClass.HYPERVISOR_HANG,
            detected_by=DetectionTechnique.HW_EXCEPTION,
            detection_latency=max(0, hv.cpu.tracer.count - _activation_index()),
            detail="watchdog NMI (instruction budget exhausted)",
        )

    # The faulty run reached VM entry.
    divergence = compute_divergence(hv, activation, golden, faulty)
    was_activated = activated() if activated is not None else divergence.any
    if not was_activated and not divergence.any:
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=False,
            failure_class=FailureClass.BENIGN,
            detected_by=DetectionTechnique.UNDETECTED,
            detection_latency=None,
            detail="non-activated",
        )
    failure = classify_divergence(divergence, activation)
    # VM transition detection runs at every VM entry (Fig. 4).
    flagged = detector is not None and detector.flags_incorrect(faulty.features)
    if flagged:
        latency = max(0, faulty.instructions - _activation_index())
        return TrialRecord(
            benchmark=benchmark,
            vmer=activation.vmer,
            fault=fault,
            activated=was_activated,
            failure_class=failure,
            detected_by=DetectionTechnique.VM_TRANSITION,
            detection_latency=latency,
            detail="transition classifier flagged the feature vector",
        )
    # Continue the simulation: corrupted machine state may be consumed by a
    # later hypervisor execution (and the fault detected there).
    followups_diverged = False
    if divergence.any and golden.followups:
        record, followups_diverged = _run_followups(
            hv, activation, fault, followups, golden, failure, was_activated,
            base_latency=max(0, faulty.instructions - _activation_index()),
            detector=detector, benchmark=benchmark,
        )
        if record is not None:
            return record
        # Internal-only corruption that neither reached a guest-visible
        # output nor perturbed any follow-up execution is *latent*: the
        # paper's methodology counts only injections that cause observable
        # failures or data corruptions.
        if (
            failure.is_manifested
            and failure not in (FailureClass.APP_SDC, FailureClass.APP_CRASH)
            and not divergence.output_diffs
            and not followups_diverged
        ):
            failure = FailureClass.LATENT
    kind = (
        undetected_kind_for(divergence, fault.register)
        if failure.is_manifested
        else None
    )
    return TrialRecord(
        benchmark=benchmark,
        vmer=activation.vmer,
        fault=fault,
        activated=was_activated,
        failure_class=failure,
        detected_by=DetectionTechnique.UNDETECTED,
        detection_latency=None,
        undetected_kind=kind,
        detail="",
    )


def _run_followups(
    hv: XenHypervisor,
    activation: Activation,
    fault: FaultSpec,
    followups: tuple[Activation, ...],
    golden: GoldenRun,
    failure,
    activated: bool,
    *,
    base_latency: int,
    detector: TransitionDetector | None,
    benchmark: str,
) -> tuple[TrialRecord | None, bool]:
    """Execute the continuation stream on the corrupted state.

    Returns ``(record, diverged)``: a detection record (or ``None`` when the
    corruption survives the whole window undetected) and whether any
    follow-up execution visibly diverged from its golden twin.
    """
    elapsed = base_latency
    diverged = False
    for follow, golden_follow in zip(followups, golden.followups):
        try:
            result = hv.execute(follow)
        except (HardwareException, AssertionViolation) as exc:
            is_assert = isinstance(exc, AssertionViolation)
            if not is_assert:
                verdict = classify_exception(exc)
                if not verdict.fatal:
                    return None, True  # benign trap; corruption persists
                detail = f"{exc.vector.name} in follow-up: {verdict.reason}"
                technique = DetectionTechnique.HW_EXCEPTION
            else:
                detail = f"assertion {exc.assertion_id} in follow-up"
                technique = DetectionTechnique.SW_ASSERTION
            return TrialRecord(
                benchmark=benchmark,
                vmer=activation.vmer,
                fault=fault,
                activated=activated,
                failure_class=failure,
                detected_by=technique,
                detection_latency=elapsed + hv.cpu.tracer.count,
                detail=detail,
            ), True
        except SimulationLimitExceeded:
            return TrialRecord(
                benchmark=benchmark,
                vmer=activation.vmer,
                fault=fault,
                activated=activated,
                failure_class=FailureClass.HYPERVISOR_HANG,
                detected_by=DetectionTechnique.HW_EXCEPTION,
                detection_latency=elapsed + hv.cpu.tracer.count,
                detail="watchdog NMI in follow-up execution",
            ), True
        elapsed += result.instructions
        if result.features != golden_follow.features:
            diverged = True
            if detector is not None and detector.flags_incorrect(result.features):
                return TrialRecord(
                    benchmark=benchmark,
                    vmer=activation.vmer,
                    fault=fault,
                    activated=activated,
                    failure_class=failure,
                    detected_by=DetectionTechnique.VM_TRANSITION,
                    detection_latency=elapsed,  # detected at this VM entry
                    detail="transition classifier flagged a follow-up execution",
                ), True
    return None, diverged
