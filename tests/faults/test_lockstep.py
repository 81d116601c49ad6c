"""Lock-step twin batching: batched trials ≡ per-trial execution.

The campaign's batch scan settles *dead* twins (flip overwritten before
the next read, or never touched again) analytically and peels diverging
twins into the per-trial path with a read-point resume hint.  These tests
hold the scan to the determinism contract: for every injection index and
register — including RIP/RFLAGS and indices past the traced run — the
batched records must be bit-identical to per-trial execution, and so must
a whole campaign's records against the per-trial reference in
``tests/faults/references.py``.
"""

import random

import numpy as np
import pytest

from repro.faults import (
    CampaignConfig,
    FaultInjectionCampaign,
    FaultSpec,
    capture_golden,
    run_trial,
    run_twin_batch,
)
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.machine.lockstep import DEAD, PEEL, TwinPlan, classify_twin

from tests.faults.references import per_trial_records


def act(name: str, *args: int, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args, domain_id=1, seq=seq)


def _plan(tops, reads, writes, n) -> TwinPlan:
    """A hand-built plan with activity only on rbx (index used below)."""
    from repro.machine.registers import ALL_REGISTERS, RegisterFile

    empty = tuple(np.array([], dtype=np.int64) for _ in ALL_REGISTERS)
    rbx = RegisterFile.index_of("rbx")
    reads_pos = list(empty)
    writes_pos = list(empty)
    reads_pos[rbx] = np.asarray(reads, dtype=np.int64)
    writes_pos[rbx] = np.asarray(writes, dtype=np.int64)
    return TwinPlan(
        tops=np.asarray(tops, dtype=np.int64),
        reads_pos=tuple(reads_pos),
        writes_pos=tuple(writes_pos),
        instructions=n,
    )


class TestClassifyTwin:
    """The scan's case analysis on hand-built position columns."""

    PLAN = _plan(tops=[0, 1, 2, 3, 4, 5, 6, 7], reads=[2, 6], writes=[4], n=8)

    def test_read_first_peels_at_read_point(self):
        # Flip at 1 applies at top 1; first read (2) precedes first write (4).
        assert classify_twin(self.PLAN, "rbx", 1) == (PEEL, 2)

    def test_read_at_boundary_peels(self):
        # p == first read: the reading instruction sees the flipped value.
        assert classify_twin(self.PLAN, "rbx", 2) == (PEEL, 2)

    def test_write_first_is_dead(self):
        # Flip at 3: the write at 4 kills it before the read at 6.
        assert classify_twin(self.PLAN, "rbx", 3) == (DEAD, None)

    def test_never_touched_again_is_dead(self):
        assert classify_twin(self.PLAN, "rbx", 7) == (DEAD, None)

    def test_untouched_register_is_dead(self):
        assert classify_twin(self.PLAN, "rcx", 0) == (DEAD, None)

    def test_rip_and_rflags_always_peel(self):
        assert classify_twin(self.PLAN, "rip", 3) == (PEEL, None)
        assert classify_twin(self.PLAN, "rflags", 3) == (PEEL, None)

    def test_index_past_traced_run_peels(self):
        assert classify_twin(self.PLAN, "rbx", 8) == (PEEL, None)

    def test_rep_bulk_snaps_flip_to_next_boundary(self):
        # Dynamic indices 2..5 are one REP dispatch (one top at 2): a flip
        # scheduled inside the bulk applies at the *next* boundary, 6 —
        # past the write at 5, so the read at 3 never sees it.
        plan = _plan(tops=[0, 1, 2, 6, 7], reads=[3], writes=[5], n=8)
        assert classify_twin(plan, "rbx", 4) == (DEAD, None)


class TestBuildPlan:
    """Lowering a real traced activation into position columns."""

    @pytest.fixture(scope="class")
    def plan(self):
        from repro.faults.injector import trace_plan

        hv = XenHypervisor(seed=23)
        activation = act("apic_timer", 3)
        golden = capture_golden(hv, activation, ladder_interval=16)
        plan = trace_plan(hv, activation, golden)
        assert plan is not None
        return plan, golden

    def test_shape_and_monotonicity(self, plan):
        plan, golden = plan
        n = golden.result.instructions
        assert plan.instructions == n
        assert 0 < len(plan.tops) <= n
        assert plan.tops[0] == 0
        for arr in (plan.tops, *plan.reads_pos, *plan.writes_pos):
            assert np.all(np.diff(arr) > 0)
            assert len(arr) == 0 or (arr[0] >= 0 and arr[-1] < n)

    def test_trace_has_register_traffic(self, plan):
        # The activation must actually read and write registers, or the
        # dead/peel split above would be vacuous.
        plan, _ = plan
        assert any(len(a) for a in plan.reads_pos)
        assert any(len(a) for a in plan.writes_pos)


class TestArmAppliedFlip:
    """The read-point resume's injection primitive."""

    def test_flip_is_immediate_and_watch_arms(self):
        hv = XenHypervisor(seed=23)
        activation = act("apic_timer", 3)
        golden = capture_golden(hv, activation)
        hv.restore(golden.checkpoint)
        before = hv.cpu.regs.read("rbx")
        hv.cpu.arm_applied_flip(7, ("rbx", 5))
        assert hv.cpu.regs.read("rbx") == before ^ (1 << 5)
        report = hv.cpu.injection_report
        assert report.applied and report.activated is None

    def test_rip_flip_counts_as_activated(self):
        hv = XenHypervisor(seed=23)
        golden = capture_golden(hv, act("apic_timer", 3))
        hv.restore(golden.checkpoint)
        hv.cpu.arm_applied_flip(7, ("rip", 2))
        report = hv.cpu.injection_report
        assert report.applied and report.activated
        assert report.activation_index == 7

    def test_rejects_bad_arguments(self):
        hv = XenHypervisor(seed=23)
        with pytest.raises(Exception):
            hv.cpu.arm_applied_flip(0, ("not_a_register", 0))
        with pytest.raises(Exception):
            hv.cpu.arm_applied_flip(0, ("rbx", 64))
        with pytest.raises(Exception):
            hv.cpu.arm_applied_flip(0)

    def test_multi_bit_flip_applies_every_bit(self):
        hv = XenHypervisor(seed=23)
        golden = capture_golden(hv, act("apic_timer", 3))
        hv.restore(golden.checkpoint)
        before = hv.cpu.regs.read("rbx")
        hv.cpu.arm_applied_flip(7, ("rbx", 5), ("rbx", 9), known_activation=11)
        assert hv.cpu.regs.read("rbx") == before ^ (1 << 5) ^ (1 << 9)
        report = hv.cpu.injection_report
        assert report.applied and report.activated
        assert (report.dynamic_index, report.activation_index) == (7, 11)

    def test_rejects_flips_across_registers(self):
        # The scan's no-access proof is per register: a burst may not be
        # re-applied past its injection index.
        hv = XenHypervisor(seed=23)
        with pytest.raises(Exception):
            hv.cpu.arm_applied_flip(0, ("rbx", 1), ("rcx", 2))


class TestTwinBatchEquivalence:
    """Exhaustive batch ≡ per-trial sweep over one activation."""

    @pytest.fixture(scope="class")
    def setting(self):
        hv = XenHypervisor(seed=23)
        activation = act("apic_timer", 3)
        golden = capture_golden(hv, activation, ladder_interval=16)
        return hv, activation, golden

    @pytest.mark.parametrize("register,bit", [("rbx", 17), ("rip", 2), ("rflags", 6)])
    def test_batch_identical_at_every_index(self, setting, register, bit):
        hv, activation, golden = setting
        n = golden.result.instructions
        faults = [FaultSpec(register, bit, index) for index in range(n)]
        oracle = [
            run_trial(hv, activation, f, golden=golden, benchmark="b")
            for f in faults
        ]
        batch = run_twin_batch(
            hv, activation, faults, golden=golden, benchmark="b"
        )
        assert batch == oracle

    def test_dead_twins_do_not_execute(self, setting, ledger):
        hv, activation, golden = setting
        n = golden.result.instructions
        faults = [FaultSpec("rbx", 17, index) for index in range(n)]
        records = run_twin_batch(hv, activation, faults, golden=golden)
        delta = ledger()
        dead = delta["dead_twins"]
        peeled = delta["peeled_twins"]
        assert dead + peeled == n and dead > 0 and peeled > 0
        # Dead twins synthesize non-activated benign records.
        synthesized = [r for r in records if r.detail == "non-activated"]
        assert len(synthesized) >= dead
        assert all(not r.activated and not r.manifested for r in synthesized)
        # The trace replay + peels execute; dead twins must cost nothing
        # beyond that (strictly fewer instructions than running all n).
        executed = delta["interpreted_instructions"] + delta["translated_instructions"]
        assert executed < (n + 1) * golden.result.instructions

    def test_on_record_sees_every_record_in_order(self, setting):
        hv, activation, golden = setting
        faults = [FaultSpec("rbx", 3, i) for i in range(0, 40, 7)]
        seen = []
        records = run_twin_batch(
            hv, activation, faults, golden=golden, on_record=seen.append
        )
        assert seen == records


class TestCampaignBitIdentity:
    """Blocking gate: the fixed-seed campaign's batched records equal the
    per-trial reference's."""

    CONFIG = CampaignConfig(n_injections=2000, seed=5)

    def test_2000_injection_campaign_identical_without_twin_batch(self, ledger):
        batched = FaultInjectionCampaign(self.CONFIG).run().records
        assert ledger()["dead_twins"] > 0  # the scan really settled twins
        assert batched == per_trial_records(self.CONFIG)


class TestDifferentialFuzz:
    """≥200 seeded scenarios, every injection index batched vs per-trial.

    Scenario diversity comes from the machine seed (memory image and
    handler data), the exit reason, its arguments and the ladder interval;
    each scenario sweeps *every* dynamic instruction index of its golden
    run for a scenario-chosen register (RIP/RFLAGS included, so the
    always-peel paths are fuzzed too), plus out-of-range indices.
    """

    N_SCENARIOS = 200
    _REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r11",
             "rsp", "rbp", "rip", "rflags")

    def test_batch_matches_per_trial_everywhere(self):
        rng = random.Random(0xFADE)
        reasons = sorted(r.name for r in REGISTRY)
        total_twins = 0
        for scenario in range(self.N_SCENARIOS):
            hv = XenHypervisor(seed=rng.randrange(10_000))
            activation = act(
                rng.choice(reasons), rng.randint(1, 4), rng.randint(1, 2),
                seq=scenario,
            )
            golden = capture_golden(
                hv, activation, ladder_interval=rng.choice((8, 16, 32))
            )
            n = golden.result.instructions
            register = rng.choice(self._REGS)
            bit = rng.randrange(64)
            faults = [FaultSpec(register, bit, i) for i in range(n)]
            faults.append(FaultSpec(register, bit, n + rng.randrange(50)))
            oracle = [
                run_trial(hv, activation, f, golden=golden, benchmark="fuzz")
                for f in faults
            ]
            batch = run_twin_batch(
                hv, activation, faults, golden=golden, benchmark="fuzz"
            )
            assert batch == oracle, (
                f"scenario {scenario}: {activation.vmer} {register} bit {bit}"
            )
            total_twins += len(faults)
        assert total_twins > self.N_SCENARIOS  # every scenario swept indices
