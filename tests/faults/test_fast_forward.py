"""Golden-prefix fast-forward: ladder trials ≡ from-scratch trials.

The campaign's trial hot path resumes the faulty run from the nearest
mid-run machine checkpoint at-or-before the injection index instead of
re-executing the whole golden prefix.  These tests hold that optimization
to the determinism contract: for *every* injection index, the fast-forward
path must produce a trial record bit-identical to full re-execution, and
campaign records must be invariant to the ladder interval and translation
(held against the references in ``tests/faults/references.py``).
"""

import pytest

from repro.faults import (
    CampaignConfig,
    FaultInjectionCampaign,
    FaultSpec,
    capture_golden,
    run_trial,
)
from repro.hypervisor import Activation, REGISTRY, XenHypervisor

from tests.faults.references import interpreted_records, ladder_records


def act(name: str, *args: int, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args, domain_id=1, seq=seq)


class TestEveryInjectionIndex:
    """Exhaustive ladder ≡ from-scratch sweep over one small activation."""

    @pytest.fixture(scope="class")
    def setting(self):
        hv = XenHypervisor(seed=23)
        activation = act("apic_timer", 3)
        baseline = capture_golden(hv, activation)
        hv.restore(baseline.checkpoint)
        laddered = capture_golden(hv, activation, ladder_interval=16)
        assert laddered.result == baseline.result
        assert len(laddered.ladder) >= 2, "activation too short to ladder"
        return hv, activation, baseline, laddered

    def test_records_identical_at_every_index(self, setting, ledger):
        hv, activation, baseline, laddered = setting
        n = baseline.result.instructions
        fast_forwarded = 0
        for index in range(n):
            fault = FaultSpec("rbx", 17, index)
            scratch = run_trial(hv, activation, fault, golden=baseline)
            ledger.mark()
            fast = run_trial(hv, activation, fault, golden=laddered)
            assert fast == scratch, f"divergence at injection index {index}"
            fast_forwarded += ledger()["fast_forwarded"]
        # Rung 0 sits at index 0, so every single trial skips the prepare.
        assert fast_forwarded == n

    def test_skip_accounting_matches_rung_indices(self, setting, ledger):
        hv, activation, _, laddered = setting
        run_trial(hv, activation, FaultSpec("rcx", 4, 40), golden=laddered)
        rung = max(r.index for r in laddered.ladder if r.index <= 40)
        assert ledger()["trials"] == 1
        assert ledger()["instructions_skipped"] == rung


class TestSideExitPrecision:
    """Translated trials ≡ interpreted trials at *every* injection index.

    This is the translation cache's determinism contract at its sharpest:
    a flip pending mid-would-be-block must interpret up to the injection
    point, and the injected state's downstream consequences (activation
    classification, exception details, counter samples, path hash) must be
    bit-identical to the interpreter-only machine.  Sweeping every dynamic
    instruction index of one activation covers side exits at every offset
    of every block the golden path executes.
    """

    @pytest.fixture(scope="class")
    def machines(self):
        interp_hv = XenHypervisor(seed=23, translate=False)
        trans_hv = XenHypervisor(seed=23, translate=True)
        activation = act("apic_timer", 3)
        interp_golden = capture_golden(interp_hv, activation, ladder_interval=16)
        trans_golden = capture_golden(trans_hv, activation, ladder_interval=16)
        assert interp_golden.result == trans_golden.result
        assert interp_golden.ladder == trans_golden.ladder
        return interp_hv, trans_hv, activation, interp_golden, trans_golden

    @pytest.mark.parametrize("register,bit", [("rbx", 17), ("rip", 2), ("rflags", 6)])
    def test_trials_identical_at_every_index(self, machines, register, bit):
        interp_hv, trans_hv, activation, interp_golden, trans_golden = machines
        n = interp_golden.result.instructions
        for index in range(n):
            fault = FaultSpec(register, bit, index)
            interp = run_trial(interp_hv, activation, fault, golden=interp_golden)
            trans = run_trial(trans_hv, activation, fault, golden=trans_golden)
            assert trans == interp, (
                f"translated trial diverged at injection index {index} "
                f"({register} bit {bit})"
            )

    def test_translated_machine_actually_translates(self, machines, ledger):
        _, trans_hv, activation, _, trans_golden = machines
        run_trial(trans_hv, activation, FaultSpec("rbx", 17, 0), golden=trans_golden)
        assert ledger()["block_executions"] > 0
        assert ledger()["translated_instructions"] > 0


class TestRecordsInvariance:
    """Campaign science must not depend on performance knobs."""

    CONFIG = CampaignConfig(n_injections=60, seed=9)

    @pytest.fixture(scope="class")
    def reference(self):
        return FaultInjectionCampaign(self.CONFIG).run().records

    @pytest.mark.parametrize("interval", [0, 1, 7, 500])
    def test_ladder_interval_does_not_change_records(self, reference, interval):
        assert ladder_records(self.CONFIG, interval) == reference

    def test_disabling_translation_does_not_change_records(self, reference, ledger):
        assert interpreted_records(self.CONFIG) == reference
        assert ledger()["translated_instructions"] == 0

    def test_interval_zero_never_fast_forwards(self, ledger):
        hv = XenHypervisor(seed=31)
        golden = capture_golden(hv, act("do_irq", 2), ladder_interval=0)
        assert golden.ladder == ()
        run_trial(hv, act("do_irq", 2), FaultSpec("rdx", 3, 5), golden=golden)
        assert ledger()["trials"] == 1
        assert ledger()["fast_forwarded"] == 0
