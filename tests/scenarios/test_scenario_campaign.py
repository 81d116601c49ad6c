"""Scenario-driven campaigns: determinism, byte-identity, engine parity.

The acceptance properties of the scenario layer:

* a degenerate (probability-1.0 single-bit register) scenario is
  **byte-identical** — records and config digest — to the equivalent
  scenario-less campaign;
* a mixed scenario is deterministic in the seed, identical across the
  twin-batch and per-trial paths, and identical serial vs. sharded;
* every fault class round-trips through persistence, and pre-scenario
  record files still load.
"""

import json

import pytest

from repro.engine import CampaignEngine
from repro.engine.planner import config_digest
from repro.faults import (
    BurstFaultSpec,
    CampaignConfig,
    FaultInjectionCampaign,
    FaultSpec,
    MemoryFaultSpec,
    MultiBitFaultSpec,
)
from repro.persist import load_records, save_records
from repro.scenarios import scenario_from_dict

from tests.faults.references import per_trial_records

MIXED = {
    "name": "mixed",
    "faults": {
        "register": {"probability": 0.4},
        "multibit": {"probability": 0.2, "n_bits": 3},
        "burst": {"probability": 0.2, "n_flips": 3},
        "memory": {"probability": 0.2},
    },
}

BASE = CampaignConfig(benchmarks=("mcf",), n_injections=40, seed=3)


def mixed_config():
    return scenario_from_dict(MIXED).apply(BASE)


@pytest.fixture(scope="module")
def mixed_records():
    return FaultInjectionCampaign(mixed_config()).run().records


class TestDegenerateScenario:
    """Satellite: probability-1.0 single-bit scenario == scenario-less run."""

    def test_apply_normalizes_onto_the_legacy_path(self):
        scenario = scenario_from_dict(
            {"name": "base", "faults": {"register": {"probability": 1.0}}}
        )
        config = scenario.apply(BASE)
        assert config.scenario is None
        assert config.fault_model == BASE.fault_model

    def test_records_and_digest_are_byte_identical(self, tmp_path):
        scenario = scenario_from_dict(
            {"name": "base", "faults": {"register": {}}}
        )
        config = scenario.apply(BASE)
        assert config_digest(config) == config_digest(BASE)
        plain = FaultInjectionCampaign(BASE).run().records
        via_scenario = FaultInjectionCampaign(config).run().records
        assert via_scenario == plain
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_records(plain, a)
        save_records(via_scenario, b)
        assert a.read_bytes() == b.read_bytes()

    def test_restricted_register_model_still_normalizes(self):
        scenario = scenario_from_dict({
            "name": "rip", "faults": {"register": {"registers": ["rip"]}},
        })
        config = scenario.apply(BASE)
        assert config.scenario is None
        assert config.fault_model.registers == ("rip",)

    def test_workload_override_blocks_normalization(self):
        scenario = scenario_from_dict({
            "name": "w",
            "faults": {"register": {}},
            "workloads": {"mcf": {"background_weight": 0.5}},
        })
        assert scenario.apply(BASE).scenario is scenario


class TestMixedScenario:
    def test_all_fault_classes_appear(self, mixed_records):
        classes = {r.fault_class for r in mixed_records}
        assert classes == {"register", "multibit", "burst", "memory"}

    def test_deterministic_in_the_seed(self, mixed_records):
        again = FaultInjectionCampaign(mixed_config()).run().records
        assert again == mixed_records

    def test_twin_batch_matches_per_trial(self, mixed_records):
        assert per_trial_records(mixed_config()) == mixed_records

    def test_sharded_engine_matches_serial(self, mixed_records):
        result = CampaignEngine(mixed_config(), jobs=1, n_shards=3).run()
        assert result.records == mixed_records

    def test_scenario_changes_the_digest(self):
        assert config_digest(mixed_config()) != config_digest(BASE)

    def test_campaign_overrides_fold_into_the_config(self):
        data = dict(MIXED)
        data["campaign"] = {"benchmarks": ["postmark"], "n_injections": 8}
        config = scenario_from_dict(data).apply(BASE)
        assert config.benchmarks == ("postmark",)
        assert config.n_injections == 8

    def test_workload_override_reshapes_records(self):
        data = {
            "name": "tilted",
            "faults": MIXED["faults"],
            "workloads": {"mcf": {"reason_mix": {"mmu_update": 500.0},
                                  "background_weight": 0.0}},
        }
        tilted = scenario_from_dict(data).apply(BASE)
        plain = mixed_config()
        assert FaultInjectionCampaign(tilted).run().records != \
            FaultInjectionCampaign(plain).run().records


class TestMemoryCampaign:
    """Satellite: the once-orphaned memory path, runnable end to end."""

    def test_memory_scenario_runs_under_the_engine(self):
        scenario = scenario_from_dict(
            {"name": "mem", "faults": {"memory": {}}}
        )
        config = scenario.apply(BASE)
        serial = FaultInjectionCampaign(config).run().records
        assert serial
        assert all(r.fault_class == "memory" for r in serial)
        assert all(isinstance(r.fault, MemoryFaultSpec) for r in serial)
        engine = CampaignEngine(config, jobs=1, n_shards=2).run()
        assert engine.records == serial

    def test_subsystem_targeting_runs(self):
        scenario = scenario_from_dict({
            "name": "sched",
            "faults": {"memory": {"subsystem": "scheduler"}},
        })
        records = FaultInjectionCampaign(scenario.apply(BASE)).run().records
        assert records
        assert all(isinstance(r.fault, MemoryFaultSpec) for r in records)


class TestPersistence:
    def test_every_fault_class_round_trips(self, mixed_records, tmp_path):
        path = tmp_path / "mixed.jsonl"
        save_records(mixed_records, path)
        assert load_records(path) == mixed_records

    def test_single_bit_records_keep_the_legacy_shape(self, tmp_path):
        records = FaultInjectionCampaign(BASE).run().records
        path = tmp_path / "plain.jsonl"
        save_records(records, path)
        with open(path) as fh:
            fh.readline()  # header
            for line in fh:
                assert "fault" not in json.loads(line)

    def test_pre_scenario_record_lines_still_load(self, tmp_path):
        """A record dict without the 'fault' discriminator is a FaultSpec."""
        path = tmp_path / "legacy.jsonl"
        line = {
            "benchmark": "mcf", "vmer": 3, "register": "rax", "bit": 7,
            "index": 42, "activated": True, "failure": "benign",
            "detected_by": "undetected", "latency": None,
            "undetected_kind": None, "detail": "",
        }
        path.write_text(
            json.dumps({"format": "xentry-records-v1", "count": 1}) + "\n"
            + json.dumps(line) + "\n"
        )
        (record,) = load_records(path)
        assert record.fault == FaultSpec("rax", 7, 42)

    def test_spec_shapes_survive(self, mixed_records):
        by_class = {r.fault_class: r.fault for r in mixed_records}
        assert isinstance(by_class["multibit"], MultiBitFaultSpec)
        assert isinstance(by_class["burst"], BurstFaultSpec)
        assert len(by_class["multibit"].bits) == 3
        assert len(by_class["burst"].flips) == 3
