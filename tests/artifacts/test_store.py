"""GoldenStore + golden_digest: artifact identity and filesystem hygiene.

The digest is the cache's entire correctness story: two configs map to the
same artifact exactly when their golden products are byte-identical.  Knobs
that shape the golden capture (seed, workload geometry, ladder placement)
must move the digest; knobs that only shape *trials* (fault model, recovery
policy, detection) must not — that is what lets a detector sweep share one
warm cache.
"""

import dataclasses

import pytest

from repro.artifacts.codec import ArtifactCorrupt, encode_group
from repro.artifacts.store import GoldenStore, golden_digest
from repro.faults import CampaignConfig, campaign, capture_golden
from repro.faults.injector import trace_plan
from repro.faults.model import FaultModel
from repro.hypervisor import Activation, REGISTRY, XenHypervisor
from repro.workloads import VirtMode

CONFIG = CampaignConfig(n_injections=40, seed=11)


def digest(config=CONFIG, benchmark="mcf", group=0):
    return golden_digest(config, benchmark, group)


class TestDigestIdentity:
    def test_digest_is_stable(self):
        assert digest() == digest()
        assert len(digest()) == 32 and set(digest()) <= set("0123456789abcdef")

    # (the parameter is named "workload" because pytest-benchmark squats on
    # the fixture name "benchmark")
    @pytest.mark.parametrize("workload,group", [("postmark", 0), ("mcf", 1)])
    def test_coordinates_move_the_digest(self, workload, group):
        assert digest(benchmark=workload, group=group) != digest()

    @pytest.mark.parametrize("change", [
        {"seed": 12},
        {"n_domains": 4},
        {"warmup_activations": 6},
        {"mode": VirtMode.HVM},
        {"benchmarks": ("mcf", "postmark")},
        # Stream geometry: the workload generator bulk-draws the whole
        # activation-index array, so activation i depends on the total
        # stream length and stride, not just its own prefix.
        {"n_injections": 80},
        {"injections_per_golden": 2},
        {"followup_activations": 4},
    ])
    def test_golden_shaping_knobs_move_the_digest(self, change):
        assert digest(dataclasses.replace(CONFIG, **change)) != digest()

    def test_ladder_interval_moves_the_digest(self, monkeypatch):
        # Rung placement is part of the artifact.
        before = digest()
        monkeypatch.setattr(campaign, "LADDER_INTERVAL", 16)
        assert digest() != before

    @pytest.mark.parametrize("change", [
        # Trial-only knobs: golden products are invariant, so sweeps over
        # them share one warm cache.
        {"fault_model": FaultModel(registers=("rip",))},
        {"fault_model": FaultModel(bits=(0, 7))},
        {"recover": "reexecute"},
        {"recover": "microreboot", "recovery_hazard": 0.25},
        {"artifacts": "elsewhere"},
    ])
    def test_trial_only_knobs_do_not_move_the_digest(self, change):
        assert digest(dataclasses.replace(CONFIG, **change)) == digest()


@pytest.fixture()
def encoded():
    hv = XenHypervisor(seed=5)
    spec = REGISTRY.by_name("apic_timer")
    activation = Activation(vmer=spec.vmer, args=(3,), domain_id=1, seq=0)
    golden = capture_golden(hv, activation, (), ladder_interval=0)
    plan = trace_plan(hv, activation, golden)
    d = digest()
    return d, encode_group(d, golden, plan)


class TestGoldenStore:
    def test_save_then_load_round_trips(self, tmp_path, encoded):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        assert not store.path_for(d).is_file()
        assert store.load(d, registry=REGISTRY) is None
        assert store.save(d, blob)
        assert store.path_for(d).read_bytes() == blob
        payload = store.load(d, registry=REGISTRY)
        assert payload is not None and payload.digest == d
        assert payload.plan is not None

    def test_content_addressed_layout(self, tmp_path, encoded):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        store.save(d, blob)
        assert store.path_for(d) == tmp_path / "golden" / d[:2] / f"{d}.art"
        assert store.path_for(d).is_file()

    def test_save_is_atomic_no_temp_residue(self, tmp_path, encoded):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        store.save(d, blob)
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".art"
        ]
        assert leftovers == []

    def test_corrupt_file_raises_artifact_corrupt(self, tmp_path, encoded):
        d, blob = encoded
        store = GoldenStore(tmp_path)
        store.save(d, blob[: len(blob) // 2])
        with pytest.raises(ArtifactCorrupt):
            store.load(d, registry=REGISTRY)

    def test_misfiled_artifact_rejected(self, tmp_path, encoded):
        # A valid artifact stored under the wrong digest must not be served:
        # the payload self-identifies and the store cross-checks.
        d, blob = encoded
        wrong = "f" * 64
        store = GoldenStore(tmp_path)
        store.save(wrong, blob)
        with pytest.raises(ArtifactCorrupt, match="self-identifies"):
            store.load(wrong, registry=REGISTRY)

    def test_unwritable_root_degrades_to_noop(self, tmp_path, encoded):
        # A plain file where the store root should be: every mkdir/open under
        # it fails with an OSError no matter the uid (chmod tricks don't
        # stop root, which is how CI runs).
        d, blob = encoded
        root = tmp_path / "ro"
        root.write_bytes(b"not a directory")
        store = GoldenStore(root)
        assert store.save(d, blob) is False
        assert store.load(d, registry=REGISTRY) is None
