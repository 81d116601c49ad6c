"""Shared fixtures: a small mapped machine, program helpers, and a view of
the counter ledger's growth."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import counters
from repro.machine import CPUCore, Memory, Region, parse_asm

TEXT_BASE = 0x0010_0000
HEAP_BASE = 0x0020_0000
STACK_BASE = 0x0030_0000
STACK_TOP = STACK_BASE + 0x1000


@pytest.fixture
def memory() -> Memory:
    """Memory with text (RX), heap (RW) and one stack page mapped."""
    mem = Memory()
    mem.map_region(Region("text", TEXT_BASE, 0x10000, writable=False, executable=True))
    mem.map_region(Region("heap", HEAP_BASE, 0x10000))
    mem.map_region(Region("stack", STACK_BASE, 0x1000))
    return mem


@pytest.fixture
def cpu(memory: Memory) -> CPUCore:
    """A core with rsp pointing at the top of the mapped stack."""
    core = CPUCore(0, memory)
    core.regs["rsp"] = STACK_TOP
    return core


@pytest.fixture
def assemble():
    """Assemble text source at the standard text base."""

    def _assemble(source: str):
        return parse_asm(source, base=TEXT_BASE)

    return _assemble


class LedgerDelta:
    """The counter ledger's growth since the last :meth:`mark`."""

    def __init__(self) -> None:
        self.mark()

    def mark(self) -> None:
        self._before = counters.snapshot()

    def __call__(self) -> Counter:
        return counters.since(self._before)


@pytest.fixture
def ledger() -> LedgerDelta:
    """Counter-ledger growth since the test started (re-``mark`` to restart)."""
    return LedgerDelta()
