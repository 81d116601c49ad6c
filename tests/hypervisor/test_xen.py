"""XenHypervisor: activation execution, determinism, interception, outputs."""

import pytest

from repro.errors import MachineConfigError
from repro.hypervisor import (
    Activation,
    ExitCategory,
    OutputRef,
    REGISTRY,
    XenHypervisor,
)
from repro.machine import AssertionViolation, Op


@pytest.fixture(scope="module")
def hv() -> XenHypervisor:
    return XenHypervisor(seed=42)


def act(name: str, *args: int, domain=1, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args, domain_id=domain, seq=seq)


class TestConstruction:
    def test_every_handler_has_an_entry_label(self, hv):
        for reason in REGISTRY:
            assert hv.program.address_of(reason.handler_label) >= hv.program.base

    def test_image_fits_text_region(self, hv):
        assert hv.program.size <= hv.memory_map.text_size

    def test_subroutines_present(self, hv):
        for sub in ("sub.memcpy", "sub.evtchn_set_pending", "sub.sched_pick"):
            hv.program.address_of(sub)


class TestExecution:
    def test_every_reason_executes_fault_free(self, hv):
        hv.reset()
        for i, reason in enumerate(REGISTRY):
            res = hv.execute(Activation(vmer=reason.vmer, args=(3, 2, 1), domain_id=1, seq=i))
            assert res.exit_op is Op.VMENTRY
            assert res.instructions > 0

    def test_features_match_table1_shape(self, hv):
        hv.reset()
        a = act("mmu_update", 10, 1)
        res = hv.execute(a)
        vmer, rt, br, rm, wm = res.features
        assert vmer == a.vmer
        assert rt == res.instructions
        assert br > 0 and rm > 0 and wm > 0

    def test_footprint_scales_with_args(self, hv):
        hv.reset()
        small = hv.execute(act("mmu_update", 2, 0, seq=1))
        large = hv.execute(act("mmu_update", 50, 0, seq=2))
        assert large.instructions > small.instructions
        assert large.sample.stores > small.sample.stores

    def test_different_reasons_have_different_paths(self, hv):
        hv.reset()
        a = hv.execute(act("xen_version", 1, seq=3))
        b = hv.execute(act("set_timer_op", 1, seq=3))
        assert a.path_hash != b.path_hash

    def test_invalid_domain_rejected(self, hv):
        with pytest.raises(MachineConfigError):
            hv.execute(Activation(vmer=0, args=(1,), domain_id=99))

    def test_too_many_args_rejected(self):
        with pytest.raises(MachineConfigError):
            Activation(vmer=0, args=(1, 2, 3, 4, 5, 6))


class TestDeterminism:
    def test_same_activation_same_state_same_result(self, hv):
        hv.reset()
        snap = hv.checkpoint()
        a = act("grant_table_op", 20, 1, seq=7)
        r1 = hv.execute(a)
        hv.restore(snap)
        r2 = hv.execute(a)
        assert r1.path_hash == r2.path_hash
        assert r1.sample == r2.sample
        assert r1.tsc_end == r2.tsc_end

    def test_reset_restores_boot_state(self, hv):
        hv.reset()
        baseline = hv.execute(act("event_channel_op", 5, 0, seq=1))
        hv.reset()
        again = hv.execute(act("event_channel_op", 5, 0, seq=1))
        assert baseline.path_hash == again.path_hash

    def test_state_evolves_without_reset(self, hv):
        """Event sends accumulate pending bits -> second run takes the
        'already pending' early exit (shorter path)."""
        hv.reset()
        first = hv.execute(act("event_channel_op", 5, 0, seq=1))
        second = hv.execute(act("event_channel_op", 5, 0, seq=1))
        assert second.instructions < first.instructions


class TestTracerModes:
    """The full tracer that ``trace_plan`` and ``machine.debug`` use records
    addresses on the side; it must not perturb execution."""

    @pytest.mark.parametrize("name, args", [
        ("grant_table_op", (20, 1)),
        ("mmu_update", (10, 1)),
        ("event_channel_op", (5, 0)),
    ], ids=["grant_table_op", "mmu_update", "event_channel_op"])
    def test_full_tracer_does_not_perturb(self, name, args):
        light = XenHypervisor(seed=42, light_trace=True)
        full = XenHypervisor(seed=42, light_trace=False)
        for seq in range(2):  # the second run sees state the first left
            a = act(name, *args, seq=seq)
            assert full.execute(a) == light.execute(a)
            assert full.cpu.tracer.count == light.cpu.tracer.count
            assert full.cpu.tracer.path_hash == light.cpu.tracer.path_hash
            assert len(full.cpu.tracer.addresses) == full.cpu.tracer.count
            assert light.cpu.tracer.addresses == []


class TestEventChannelSemantics:
    def test_send_sets_pending_bit_and_marks_vcpu(self, hv):
        hv.reset()
        hv.execute(act("event_channel_op", 9, 0, domain=2))
        dom = hv.domain(2)
        assert dom.is_port_pending(9)
        assert dom.vcpu(0).pending

    def test_masked_port_drops_event(self, hv):
        hv.reset()
        hv.domain(2).mask_port(9)
        # Re-checkpoint so the masked state is the baseline for execute.
        hv.execute(act("event_channel_op", 9, 0, domain=2))
        dom = hv.domain(2)
        assert not dom.is_port_pending(9)
        assert not dom.vcpu(0).pending

    def test_multi_port_send(self, hv):
        hv.reset()
        # rsi=2 -> (2 & 7) + 1 = 3 sends starting at port 4, stride 1 + vmer%3.
        reason = REGISTRY.by_name("event_channel_op")
        stride = 1 + reason.vmer % 3
        hv.execute(act("event_channel_op", 4, 2, domain=1))
        dom = hv.domain(1)
        assert dom.is_port_pending(4)
        assert dom.is_port_pending(4 + stride)
        assert dom.is_port_pending(4 + 2 * stride)


class TestTimeDelivery:
    def test_timer_op_writes_time_slots(self, hv):
        hv.reset()
        a = act("set_timer_op", 5000, domain=1, seq=11)
        hv.execute(a)
        vcpu = hv.vcpu(1)
        assert vcpu.system_time > 0
        outputs = hv.read_outputs(a)
        assert any(v == vcpu.system_time for v in outputs.values())

    def test_time_advances_with_sequence(self, hv):
        hv.reset()
        hv.execute(act("set_timer_op", 5000, domain=1, seq=1))
        t1 = hv.vcpu(1).system_time
        hv.execute(act("set_timer_op", 5000, domain=1, seq=100))
        t2 = hv.vcpu(1).system_time
        assert t2 > t1


class TestCpuidEmulation:
    def test_emulation_writes_guest_regs(self, hv):
        """The Section II.A long-latency example: cpuid leaf 0 ->
        vendor string lands in the guest's register frame."""
        hv.reset()
        a = act("hvm_cpuid", 0, domain=2, seq=5)
        hv.execute(a)
        vcpu = hv.vcpu(2)
        assert vcpu.reg(1) == 0x756E6547  # ebx = "Genu"
        assert vcpu.reg(3) == 0x49656E69  # edx = "ineI"

    def test_guest_rip_advanced_past_instruction(self, hv):
        hv.reset()
        a = act("hvm_cpuid", 1, domain=2, seq=6)
        hv.prepare(a)
        rip_before = hv.vcpu(2).rip
        hv.reset()
        hv.execute(a)
        assert hv.vcpu(2).rip == rip_before + 2


class TestSchedulerInvariant:
    def test_idle_path_checks_listing2_invariant(self, hv):
        """Corrupt the mode *check* by poisoning memory between store and
        re-load is impossible fault-free; instead verify the invariant
        assertion exists and passes on the legal path."""
        hv.reset()
        res = hv.execute(act("sched_op", 1, 0, domain=1))  # rdi=1 -> idle path
        assert res.exit_op is Op.VMENTRY

    def test_context_save_restore_roundtrip(self, hv):
        hv.reset()
        vcpu = hv.vcpu(1)
        a = act("sched_op", 0, 0, domain=1, seq=3)
        hv.prepare(a)
        vcpu.set_reg(0, 0xAAAA)
        vcpu.set_reg(1, 0xBBBB)
        vcpu.set_reg(2, 0xCCCC)
        snap = hv.checkpoint()
        hv.restore(snap)
        hv.cpu.pmu.arm()
        entry = hv.program.address_of(REGISTRY.by_name("sched_op").handler_label)
        hv.cpu.run(hv.program, entry)
        assert vcpu.reg(0) == 0xAAAA and vcpu.reg(1) == 0xBBBB and vcpu.reg(2) == 0xCCCC


class TestAssertionsUnderCorruption:
    def test_idle_invariant_fires_when_mode_corrupted(self):
        """Drive the sched idle path with an injection that corrupts the
        re-loaded mode value: the Listing 2 assertion must fire."""
        hv = XenHypervisor(seed=7)
        a = act("sched_op", 1, 0, domain=1, seq=1)
        # Find the dynamic index of the assert by scanning: inject a flip into
        # r11 right before the assert_eq (r11 holds the re-loaded mode).
        golden = hv.execute(a)
        detected = False
        for idx in range(golden.instructions):
            hv.reset()
            hv.cpu.schedule_register_flip(idx, "r11", 0)
            try:
                hv.execute(a)
            except AssertionViolation as exc:
                if exc.assertion_id == "vcpu_idle_invariant":
                    detected = True
                    break
            except Exception:
                continue
        assert detected


class TestOutputs:
    def test_output_addresses_resolve_per_domain(self, hv):
        a1 = act("hvm_cpuid", 0, domain=1)
        a2 = act("hvm_cpuid", 0, domain=2)
        addrs1 = {addr for addr, _, _ in hv.output_addresses(a1)}
        addrs2 = {addr for addr, _, _ in hv.output_addresses(a2)}
        assert addrs1.isdisjoint(addrs2)

    def test_output_refs_match_handler_family(self, hv):
        refs = {ref for _, _, ref in hv.output_addresses(act("set_timer_op", 1))}
        assert refs == {OutputRef.VCPU_TIME, OutputRef.WALLCLOCK}

    def test_categories_have_expected_output_presence(self, hv):
        for reason in REGISTRY:
            a = Activation(vmer=reason.vmer, args=(1,), domain_id=1)
            outs = hv.output_addresses(a)
            if reason.category in (ExitCategory.COMMON_IRQ, ExitCategory.APIC):
                assert outs, f"{reason.name} should deliver a trap number"
