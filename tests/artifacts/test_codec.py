"""Artifact codec: bit-exact round trips and corruption rejection.

The codec's contract has two halves.  Forward: a decoded golden group must
be *functionally identical* to the captured one — same results, same page
contents, same TwinPlan columns — with structural sharing preserved so the
campaign's identity-diff restore stays cheap.  Backward: any damaged input
(truncation, bit rot, torn write, version bump, garbage) must raise
:class:`ArtifactCorrupt` — never a stray ``KeyError``/``struct.error``, and
never a silently wrong payload — because the runtime maps that one exception
to the live-capture fallback.
"""

import numpy as np
import pytest

from repro.artifacts.codec import (
    MAGIC,
    ArtifactCorrupt,
    decode_group,
    encode_group,
)
from repro.faults import capture_golden
from repro.faults.injector import trace_plan
from repro.hypervisor import Activation, REGISTRY, XenHypervisor

DIGEST = "ab" * 32


def act(name: str, *args: int, seq=0) -> Activation:
    return Activation(vmer=REGISTRY.by_name(name).vmer, args=args, domain_id=1, seq=seq)


@pytest.fixture(scope="module")
def captured():
    hv = XenHypervisor(seed=23)
    activation = act("apic_timer", 3)
    followups = (act("sched_op", 2, 1, seq=1), act("page_fault", 4, seq=2))
    golden = capture_golden(hv, activation, followups, ladder_interval=16)
    plan = trace_plan(hv, activation, golden)
    return golden, plan


@pytest.fixture(scope="module")
def blob(captured):
    golden, plan = captured
    return encode_group(DIGEST, golden, plan)


class TestRoundTrip:
    def test_golden_round_trips_bit_exact(self, captured, blob):
        golden, _ = captured
        payload = decode_group(blob, registry=REGISTRY)
        assert payload.digest == DIGEST
        out = payload.golden
        assert out.result == golden.result
        assert out.followups == golden.followups
        assert out.outputs == golden.outputs
        # memoryview == bytes compares contents.
        assert out.heap_image == golden.heap_image
        assert out.checkpoint.pages.keys() == golden.checkpoint.pages.keys()
        for base, page in golden.checkpoint.pages.items():
            assert out.checkpoint.pages[base] == page
        assert len(out.ladder) == len(golden.ladder)
        for mine, theirs in zip(out.ladder, golden.ladder):
            assert mine.core == theirs.core
            assert mine.memory.pages.keys() == theirs.memory.pages.keys()

    def test_plan_round_trips(self, captured, blob):
        _, plan = captured
        out = decode_group(blob, registry=REGISTRY).plan
        assert out is not None
        assert np.array_equal(out.tops, plan.tops)
        assert out.instructions == plan.instructions
        for mine, theirs in zip(out.reads_pos, plan.reads_pos):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(out.writes_pos, plan.writes_pos):
            assert np.array_equal(mine, theirs)

    def test_refused_plan_round_trips(self, captured):
        # A trace replay that refused to line up is cached as "no plan", so
        # a warm run peels every twin exactly like the live run did.
        golden, _ = captured
        blob = encode_group(DIGEST, golden, None)
        assert decode_group(blob, registry=REGISTRY).plan is None

    def test_encoding_is_deterministic(self, captured):
        golden, plan = captured
        a = encode_group(DIGEST, golden, plan)
        b = encode_group(DIGEST, golden, plan)
        assert a == b

    def test_structural_sharing_restored(self, blob):
        # One object per unique page blob, shared by the checkpoint and
        # every ladder rung: after the first restore rebinds Memory._base
        # to these pages, later rung restores identity-diff to near no-ops.
        payload = decode_group(blob, registry=REGISTRY)
        golden = payload.golden
        for rung in golden.ladder:
            for base, page in rung.memory.pages.items():
                baseline = golden.checkpoint.pages.get(base)
                if baseline is not None and page == baseline:
                    assert page is baseline

    def test_plan_columns_are_aligned_views(self, blob):
        # int64 columns must map without copy, which requires 8-alignment.
        plan = decode_group(blob, registry=REGISTRY).plan
        for arr in (plan.tops, *plan.reads_pos, *plan.writes_pos):
            assert arr.dtype == np.int64
            assert arr.ctypes.data % 8 == 0


class TestCorruptionRejection:
    """Every damage mode raises ArtifactCorrupt, nothing else."""

    def test_truncation_everywhere(self, blob):
        # Every prefix shorter than the full blob is corrupt — header,
        # mid-TOC, mid-blob, missing checksum tail alike.
        for cut in range(0, len(blob), max(1, len(blob) // 37)):
            with pytest.raises(ArtifactCorrupt):
                decode_group(blob[:cut], registry=REGISTRY)

    def test_single_bit_rot_detected(self, blob):
        for offset in (0, 7, len(blob) // 2, len(blob) - 1):
            rotten = bytearray(blob)
            rotten[offset] ^= 0x40
            with pytest.raises(ArtifactCorrupt):
                decode_group(bytes(rotten), registry=REGISTRY)

    def test_version_bump_rejected(self, blob):
        assert blob[: len(MAGIC)] == MAGIC
        bumped = MAGIC[:-1] + bytes([MAGIC[-1] + 1]) + blob[len(MAGIC):]
        with pytest.raises(ArtifactCorrupt):
            decode_group(bumped, registry=REGISTRY)

    def test_garbage_rejected(self):
        for garbage in (b"", b"\x00" * 64, b"not an artifact" * 100):
            with pytest.raises(ArtifactCorrupt):
                decode_group(garbage, registry=REGISTRY)

    def test_checksummed_but_structurally_torn_rejected(self, captured):
        # A torn write re-checksummed by an adversary (or a bug) still has
        # to fail structurally — blob references point past the payload —
        # and surface as ArtifactCorrupt, not an IndexError.
        import hashlib

        golden, _ = captured
        blob = encode_group(DIGEST, golden, None)
        shortened = blob[:-16][: len(blob) - 4096]
        fake = shortened + hashlib.blake2b(shortened, digest_size=16).digest()
        with pytest.raises(ArtifactCorrupt):
            decode_group(fake, registry=REGISTRY)
