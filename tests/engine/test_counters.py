"""The counter-ledger contract: campaign counters equal the record-derived
truth, whichever way the campaign ran.

One campaign (seed 5, 120 injections) runs serially, inline with chaos
crashes that force shard retries, and over a 2-worker pool.  Each run's
counters must match its records, retried shards must not count twice, and
the pooled run must report the workers' machine counters.
"""

import dataclasses

import pytest

from repro import counters
from repro.engine import CampaignEngine, parse_chaos_spec
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults.campaign import benchmark_geometry
from repro.xentry import TrainingConfig, collect_dataset

CONFIG = CampaignConfig(n_injections=120, seed=5)
#: Counts that depend only on the trials, not on cache state or process.
TRIAL_COUNTS = ("twins", "dead_twins", "peeled_twins", "fast_forwarded")


def serial_run(config):
    before = counters.snapshot()
    result = FaultInjectionCampaign(config).run()
    return result, counters.since(before)


def engine_run(config, *, jobs, chaos=None):
    engine = CampaignEngine(config, jobs=jobs, chaos=chaos)
    result = engine.run()
    assert not result.degraded
    return result, engine.telemetry


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (result, counts); the serial run fills the golden store the
    other two then load from."""
    config = dataclasses.replace(
        CONFIG, artifacts=str(tmp_path_factory.mktemp("goldens"))
    )
    serial = serial_run(config)
    retried, telemetry = engine_run(
        config, jobs=1, chaos=parse_chaos_spec("crash=0.5,seed=1")
    )
    assert telemetry.retries > 0, "chaos must force at least one retry"
    pooled, pool_telemetry = engine_run(config, jobs=2)
    return {
        "serial": serial,
        "retried": (retried, telemetry.counters),
        "pooled": (pooled, pool_telemetry.counters),
    }


@pytest.mark.parametrize("name", ["serial", "retried", "pooled"])
def test_trials_and_twins_equal_the_records(runs, name):
    result, counts = runs[name]
    assert counts["trials"] == len(result.records)
    assert counts["twins"] == len(result.records)


@pytest.mark.parametrize("name", ["serial", "retried", "pooled"])
def test_every_golden_group_consults_the_cache_once(runs, name):
    _, counts = runs[name]
    groups = benchmark_geometry(CONFIG).n_goldens * len(CONFIG.benchmarks)
    assert counts["golden_hits"] + counts["golden_misses"] == groups


def test_trial_counts_agree_across_serial_retried_and_pooled(runs):
    views = {name: counters.view(TRIAL_COUNTS, counts) for name, (_, counts) in runs.items()}
    assert views["serial"]["dead_twins"] > 0
    assert views["retried"] == views["serial"]
    assert views["pooled"] == views["serial"]


def test_pooled_run_reports_worker_machine_counters(runs):
    _, counts = runs["pooled"]
    assert counts["translated_instructions"] + counts["interpreted_instructions"] > 0


def test_detector_training_does_not_leak_into_campaign_counts():
    _, alone = serial_run(CONFIG)
    collect_dataset(
        TrainingConfig(fault_free_runs=100, injection_runs=390, seed=5)
    )
    _, after_training = serial_run(CONFIG)
    keys = counters.FAST_FORWARD + counters.TWINS
    assert counters.view(keys, after_training) == counters.view(keys, alone)

    def instructions(counts):
        return counts["translated_instructions"] + counts["interpreted_instructions"]

    assert instructions(after_training) == instructions(alone)
