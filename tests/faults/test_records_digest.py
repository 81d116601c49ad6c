"""Pinned records digest: a fixed-seed campaign's saved records, byte for byte.

Hangs run concretely to the watchdog budget, so every ``HYPERVISOR_HANG``
record (failure class, detection latency, counter sample, path hash) comes
from real execution.  Any change to the machine, the injector or the record
encoding that moves a single byte of this campaign's output changes the
digest below, so a pure performance change must leave it alone.
"""

import hashlib

from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults.outcomes import FailureClass
from repro.persist import save_records

RECORDS_SHA256 = "9a42aa6484c7f2408dcc713356ef5c3fca2bda4c4b5e756304a539bfc0ece279"


def test_seed5_campaign_records_are_pinned(tmp_path):
    result = FaultInjectionCampaign(CampaignConfig(n_injections=120, seed=5)).run()
    hangs = sum(
        r.failure_class is FailureClass.HYPERVISOR_HANG for r in result.records
    )
    assert hangs == 6
    path = tmp_path / "records.jsonl"
    save_records(result.records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORDS_SHA256
