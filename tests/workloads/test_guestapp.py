"""Executable guest-application model and its agreement with the rule-based
consequence classifier."""

import pytest

from repro.faults import FaultSpec, capture_golden, run_trial
from repro.faults.outcomes import FailureClass
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.machine import AssertionViolation, HardwareException
from repro.errors import SimulationLimitExceeded
from repro.workloads.guestapp import AppOutcome, GuestApplication


@pytest.fixture()
def hv() -> XenHypervisor:
    return XenHypervisor(seed=51)


def act(name: str, *args: int, domain=1, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args,
                      domain_id=domain, seq=seq)


class TestCleanConsumption:
    def test_fault_free_step_is_ok(self, hv):
        hv.execute(act("hvm_cpuid", 1))
        app = GuestApplication()
        run = app.step(hv.domain(1))
        assert run.outcome is AppOutcome.OK
        assert run.digest != 0

    def test_identical_state_identical_digest(self, hv):
        hv.execute(act("xen_version", 2))
        a = GuestApplication().step(hv.domain(1))
        b = GuestApplication().step(hv.domain(1))
        assert a.outcome is b.outcome is AppOutcome.OK
        assert a.digest == b.digest

    def test_different_delivered_values_different_digest(self, hv):
        hv.reset()
        hv.execute(act("xen_version", 2))
        a = GuestApplication().step(hv.domain(1))
        hv.reset()
        hv.execute(act("xen_version", 3, seq=1))
        b = GuestApplication().step(hv.domain(1))
        assert a.digest != b.digest


class TestObservableFailures:
    def test_bad_trap_number_panics_the_kernel(self, hv):
        hv.reset()
        hv.execute(act("do_irq", 5))
        vcpu = hv.vcpu(1)
        vcpu.set_reg(0, 0)  # keep registers harmless
        hv.memory.write_u64(hv.layout.domains[1].vcpus[0].trapno.address, 0x4001)
        run = GuestApplication().step(hv.domain(1))
        assert run.outcome is AppOutcome.KERNEL_PANIC

    def test_wild_pointer_segfaults(self, hv):
        hv.reset()
        hv.execute(act("hvm_cpuid", 1))
        hv.vcpu(1).set_reg(2, 0x0000_7F12_3456_0000)  # outside the app heap
        run = GuestApplication().step(hv.domain(1))
        assert run.outcome is AppOutcome.SEGFAULT

    def test_pointer_inside_app_heap_is_fine(self, hv):
        hv.reset()
        hv.execute(act("hvm_cpuid", 1))
        app = GuestApplication()
        hv.vcpu(1).set_reg(2, app.heap_base + 64)
        assert app.step(hv.domain(1)).outcome is AppOutcome.OK

    def test_backwards_clock_misbehaves(self, hv):
        hv.reset()
        hv.execute(act("set_timer_op", 100, seq=50))
        app = GuestApplication()
        first = app.step(hv.domain(1))
        assert first.outcome is AppOutcome.OK
        # Deliver an earlier time: the app notices.
        time_addr = hv.layout.domains[1].vcpus[0].time.address
        hv.memory.write_u64(time_addr, 1)
        assert app.step(hv.domain(1)).outcome is AppOutcome.MISBEHAVED

    def test_corrupted_cpuid_result_is_sdc(self, hv):
        """The Section II.A example observed end-to-end: the app completes
        normally with a wrong result."""
        hv.reset()
        activation = act("hvm_cpuid", 1)
        hv.execute(activation)
        golden = GuestApplication().step(hv.domain(1))
        hv.reset()
        hv.execute(activation)
        vcpu = hv.vcpu(1)
        vcpu.set_reg(0, vcpu.reg(0) ^ (1 << 9))  # one flipped feature bit
        faulty = GuestApplication().step(hv.domain(1))
        assert faulty.is_sdc_against(golden)


class TestAgreementWithRuleClassifier:
    def test_app_model_confirms_sdc_classifications(self, hv):
        """Faults the rule classifier calls APP_SDC must show up as digest
        differences (or worse) in the executable model."""
        hv.reset()
        activation = act("hvm_cpuid", 2, domain=1)
        golden = capture_golden(hv, activation)
        hv.restore(golden.checkpoint)
        hv.execute(activation)
        golden_app = GuestApplication().step(hv.domain(1))

        confirmed = examined = 0
        for idx in range(golden.result.instructions):
            for bit in (2, 9, 30):
                record = run_trial(hv, activation, FaultSpec("rbx", bit, idx),
                                   golden=golden)
                if record.failure_class is not FailureClass.APP_SDC:
                    continue
                examined += 1
                # Re-execute the faulty run and let the app consume it.
                hv.restore(golden.checkpoint)
                hv.cpu.schedule_flip(idx, ("rbx", bit))
                try:
                    hv.execute(activation)
                except (HardwareException, AssertionViolation, SimulationLimitExceeded):
                    continue
                app_run = GuestApplication().step(hv.domain(1))
                if app_run.is_sdc_against(golden_app) or app_run.outcome is not AppOutcome.OK:
                    confirmed += 1
        assert examined > 0
        assert confirmed / examined > 0.8
