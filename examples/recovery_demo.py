#!/usr/bin/env python3
"""Detection-to-recovery, end to end (the Section VI scheme, executed).

The paper prices a copy-at-exit / restore-and-re-execute recovery scheme but
leaves the implementation as future work; ``repro.xentry.RecoveryManager``
implements it.  This demo drives the full loop with an *executable* guest
application consuming the results:

1. a guest issues cpuid-emulation and event-channel activations;
2. soft errors strike the hypervisor mid-handler;
3. Xentry detects (hardware exception / assertion), recovery restores the
   critical-state copy and re-executes;
4. the guest application's digest proves it observed exactly the fault-free
   results.
"""

from __future__ import annotations

from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.workloads import AppOutcome, GuestApplication
from repro.xentry import RecoveryManager, Xentry


def main() -> None:
    hv = XenHypervisor(seed=42)
    manager = RecoveryManager(Xentry(hv))
    app = GuestApplication()

    script = [
        ("hvm_cpuid", (1,), None),
        ("event_channel_op", (9, 0), ("r12", 43, 4)),   # corrupted domain ptr
        ("set_timer_op", (500,), None),
        ("do_irq", (7,), ("rdi", 44, 1)),               # corrupted vector
        ("grant_table_op", (12, 2), ("rbp", 41, 10)),   # corrupted globals ptr
        ("xen_version", (2,), None),
    ]

    print("=== golden pass (no faults) ===")
    golden_digests = []
    for seq, (name, args, _fault) in enumerate(script):
        activation = Activation(vmer=REGISTRY.by_name(name).vmer, args=args,
                                domain_id=1, seq=seq)
        hv.execute(activation)
        run = app.step(hv.domain(1))
        golden_digests.append(run.digest)
        print(f"  {name:<18} app outcome: {run.outcome.value}, "
              f"digest {run.digest:#018x}")

    print("\n=== protected pass with soft errors + recovery ===")
    hv.reset()
    app = GuestApplication()
    for seq, (name, args, fault) in enumerate(script):
        activation = Activation(vmer=REGISTRY.by_name(name).vmer, args=args,
                                domain_id=1, seq=seq)
        if fault is not None:
            register, bit, index = fault
            hv.cpu.schedule_flip(index, (register, bit))
        outcome = manager.protect(activation)
        run = app.step(hv.domain(1))
        status = "RECOVERED" if outcome.recovered else (
            "clean" if not outcome.detected else "UNRECOVERED")
        match = "==" if run.digest == golden_digests[seq] else "!="
        print(f"  {name:<18} {status:<11} app digest {match} golden "
              f"({run.outcome.value})")
        assert run.outcome is AppOutcome.OK
        assert run.digest == golden_digests[seq], "guest saw corrupted state!"

    print("\n=== recovery statistics ===")
    print(f"  VM exits protected: {manager.exits_protected}")
    print(f"  recoveries:         {manager.recoveries}")
    print(f"  unrecoverable:      {manager.unrecoverable}")
    print("\nEvery injected soft error was detected and recovered before the")
    print("guest consumed anything — the isolation property the paper's")
    print("detection-first argument is about.")


if __name__ == "__main__":
    main()
