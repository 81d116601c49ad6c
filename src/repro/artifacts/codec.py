"""Binary codec for golden-group artifacts.

One artifact holds everything a worker needs to run a golden group's trials
without executing the fault-free twin: the :class:`GoldenRun` (result,
outputs, heap image, pre-run checkpoint, follow-up results, checkpoint
ladder) and the lock-step :class:`TwinPlan` (or ``None`` where the trace
replay refused to line up).  The layout::

    MAGIC (8 bytes, includes the format version byte)
    u64   header length
    JSON  header (structured rim via repro.persist codecs + blob index)
    pad   to 8-byte alignment
    blobs (checkpoint pages, heap image, numpy columns; each 8-aligned)
    blake2b-16 checksum of everything above

Two properties matter more than compactness:

* **Deduplicated pages.**  Checkpoint-ladder rungs share almost every page
  with their neighbours; pages are stored once and referenced by index, and
  the decoder materializes one buffer per unique page *shared across every
  checkpoint of the group* — restoring the copy-on-write structural sharing
  :meth:`Memory.restore` exploits (its diff is by buffer identity).
* **Mappable columns.**  TwinPlan position columns are raw little-endian
  int64 runs at 8-aligned offsets, so the decoder builds its arrays with
  ``np.frombuffer`` over the artifact bytes — no per-element parsing.

No pickle anywhere: a corrupt or adversarial artifact can fail to decode
(:class:`ArtifactCorrupt`), never execute.  The trailing checksum makes
truncation, bit rot and torn writes indistinguishable from any other
corruption — one fallback path, counted once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.faults.propagation import GoldenRun
from repro.hypervisor.xen import MachineCheckpoint
from repro.machine.lockstep import TwinPlan
from repro.machine.memory import MemoryCheckpoint
from repro.persist import (
    activation_result_from_dict,
    activation_result_to_dict,
    core_checkpoint_from_dict,
    core_checkpoint_to_dict,
)

__all__ = [
    "ArtifactCorrupt",
    "ArtifactPayload",
    "CODEC_FORMAT",
    "MAGIC",
    "decode_group",
    "encode_group",
]

#: Last byte is the binary-format version: bump it and every older reader
#: treats the file as corrupt (fallback to live capture, never a misparse).
MAGIC = b"XENTART\x01"
CODEC_FORMAT = "xentry-artifact-v1"
_CHECKSUM_BYTES = 16

#: The header's plan states: a usable TwinPlan, or a refused one (trace
#: mismatch) — the cached group must then peel every twin, exactly like the
#: live path would.
_PLAN_PRESENT = "plan"
_PLAN_NONE = "none"

_COLUMN_DTYPE = np.dtype("<i8")


class ArtifactCorrupt(Exception):
    """An artifact's bytes are not a valid, checksummed encoding."""


@dataclass(frozen=True)
class ArtifactPayload:
    """A decoded artifact: the golden products plus the twin plan."""

    digest: str
    golden: GoldenRun
    #: ``None`` when the capture's trace replay refused to line up.
    plan: TwinPlan | None
    #: Encoded size (telemetry: bytes served from cache instead of re-run).
    nbytes: int


class _BlobWriter:
    """Accumulates 8-aligned blobs, deduplicating by content."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.index: list[tuple[int, int]] = []  # (offset, length) per blob id
        self.offset = 0
        self._by_content: dict[bytes, int] = {}

    def add(self, data: bytes) -> int:
        """Store ``data`` (deduplicated) and return its blob id."""
        blob_id = self._by_content.get(data)
        if blob_id is not None:
            return blob_id
        pad = (-self.offset) % 8
        if pad:
            self.chunks.append(b"\x00" * pad)
            self.offset += pad
        blob_id = len(self.index)
        self._by_content[data] = blob_id
        self.index.append((self.offset, len(data)))
        self.chunks.append(data)
        self.offset += len(data)
        return blob_id


def _pages_ref(pages: dict[int, bytes], writer: _BlobWriter) -> list[list[int]]:
    """Lower a checkpoint's page dict to ``[page_base, blob_id]`` pairs.

    Sorted by base so identical checkpoints encode identically (artifact
    bytes are content-addressed; determinism keeps racing writers benign).
    """
    return [[base, writer.add(bytes(pages[base]))] for base in sorted(pages)]


def encode_group(digest: str, golden: GoldenRun, plan: TwinPlan | None) -> bytes:
    """Encode one golden group's products into artifact bytes."""
    writer = _BlobWriter()
    header: dict = {
        "format": CODEC_FORMAT,
        "digest": digest,
        "golden": {
            "result": activation_result_to_dict(golden.result),
            "followups": [activation_result_to_dict(f) for f in golden.followups],
            "outputs": [[addr, golden.outputs[addr]] for addr in sorted(golden.outputs)],
            "heap": writer.add(golden.heap_image),
            "checkpoint": _pages_ref(golden.checkpoint.pages, writer),
            "ladder": [
                {
                    "core": core_checkpoint_to_dict(rung.core),
                    "pages": _pages_ref(rung.memory.pages, writer),
                }
                for rung in golden.ladder
            ],
        },
    }
    if plan is None:
        header["plan"] = {"state": _PLAN_NONE}
    else:
        header["plan"] = {
            "state": _PLAN_PRESENT,
            "instructions": plan.instructions,
            "tops": _column_ref(plan.tops, writer),
            "reads_pos": [_column_ref(c, writer) for c in plan.reads_pos],
            "writes_pos": [_column_ref(c, writer) for c in plan.writes_pos],
        }
    header["blobs"] = [[off, length] for off, length in writer.index]

    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix_len = len(MAGIC) + 8 + len(header_bytes)
    pad = (-prefix_len) % 8
    parts = [
        MAGIC,
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
        b"\x00" * pad,
        *writer.chunks,
    ]
    body = b"".join(parts)
    return body + hashlib.blake2b(body, digest_size=_CHECKSUM_BYTES).digest()


def _column_ref(column: np.ndarray, writer: _BlobWriter) -> int:
    return writer.add(np.ascontiguousarray(column, dtype=_COLUMN_DTYPE).tobytes())


def decode_group(buf: bytes | memoryview, *, registry) -> ArtifactPayload:
    """Decode artifact bytes; raises :class:`ArtifactCorrupt` on anything
    that is not a checksummed, well-formed encoding.

    TwinPlan columns are ``np.frombuffer`` views of ``buf`` and checkpoint
    pages are sub-views of it, so the decoded payload keeps ``buf`` alive.
    """
    view = memoryview(buf)
    try:
        if len(view) < len(MAGIC) + 8 + _CHECKSUM_BYTES:
            raise ArtifactCorrupt("artifact truncated below minimum size")
        if bytes(view[: len(MAGIC)]) != MAGIC:
            raise ArtifactCorrupt("bad magic or unsupported artifact version")
        body, checksum = view[:-_CHECKSUM_BYTES], view[-_CHECKSUM_BYTES:]
        expect = hashlib.blake2b(body, digest_size=_CHECKSUM_BYTES).digest()
        if bytes(checksum) != expect:
            raise ArtifactCorrupt("artifact checksum mismatch")
        header_len = int.from_bytes(view[len(MAGIC) : len(MAGIC) + 8], "little")
        header_end = len(MAGIC) + 8 + header_len
        if header_end > len(body):
            raise ArtifactCorrupt("artifact header extends past payload")
        try:
            header = json.loads(bytes(view[len(MAGIC) + 8 : header_end]).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactCorrupt(f"artifact header unreadable: {exc}") from exc
        if header.get("format") != CODEC_FORMAT:
            raise ArtifactCorrupt(
                f"artifact format {header.get('format')!r} != {CODEC_FORMAT}"
            )
        blob_base = header_end + ((-header_end) % 8)
        blob_area = body[blob_base:]

        def blob(blob_id: int) -> memoryview:
            off, length = header["blobs"][blob_id]
            if off + length > len(blob_area):
                raise ArtifactCorrupt(f"blob {blob_id} out of bounds")
            return blob_area[off : off + length]

        # One buffer per unique page blob, shared across every checkpoint
        # that references it (COW structural sharing survives the roundtrip).
        page_cache: dict[int, memoryview] = {}

        def pages_from(refs) -> dict[int, bytes]:
            out = {}
            for base, blob_id in refs:
                page = page_cache.get(blob_id)
                if page is None:
                    page = page_cache[blob_id] = blob(blob_id)
                out[base] = page
            return out

        g = header["golden"]
        golden = GoldenRun(
            result=activation_result_from_dict(g["result"], registry=registry),
            outputs={addr: value for addr, value in g["outputs"]},
            heap_image=blob(g["heap"]),
            checkpoint=MemoryCheckpoint(pages=pages_from(g["checkpoint"])),
            followups=tuple(
                activation_result_from_dict(f, registry=registry)
                for f in g["followups"]
            ),
            ladder=tuple(
                MachineCheckpoint(
                    core=core_checkpoint_from_dict(rung["core"]),
                    memory=MemoryCheckpoint(pages=pages_from(rung["pages"])),
                )
                for rung in g["ladder"]
            ),
        )

        def column(blob_id: int) -> np.ndarray:
            raw = blob(blob_id)
            if len(raw) % _COLUMN_DTYPE.itemsize:
                raise ArtifactCorrupt(f"column blob {blob_id} misaligned")
            return np.frombuffer(raw, dtype=_COLUMN_DTYPE)

        p = header["plan"]
        state = p["state"]
        if state == _PLAN_PRESENT:
            plan = TwinPlan(
                tops=column(p["tops"]),
                reads_pos=tuple(column(c) for c in p["reads_pos"]),
                writes_pos=tuple(column(c) for c in p["writes_pos"]),
                instructions=p["instructions"],
            )
        elif state == _PLAN_NONE:
            plan = None
        else:
            raise ArtifactCorrupt(f"unknown plan state {state!r}")
        return ArtifactPayload(
            digest=header["digest"],
            golden=golden,
            plan=plan,
            nbytes=len(view),
        )
    except ArtifactCorrupt:
        raise
    except Exception as exc:  # noqa: BLE001 — any malformed field is corruption
        raise ArtifactCorrupt(f"artifact decode failed: {type(exc).__name__}: {exc}") from exc
