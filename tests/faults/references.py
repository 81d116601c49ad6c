"""Slower reference paths the campaign's one trial path is held against.

The campaign settles every golden group as one lock-step twin batch on a
translating machine with a checkpoint ladder every
:data:`~repro.faults.campaign.LADDER_INTERVAL` instructions.  Each helper
here runs the same campaign another way, so a test can assert the records
are identical:

* :func:`per_trial_records` — every fault through
  :func:`~repro.faults.injector.run_spec_trial`, no batch scan;
* :func:`interpreted_records` — every instruction through the interpreter;
* :func:`ladder_records` — another ladder interval (0: no ladder at all).
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjectionCampaign, campaign, run_spec_trial
from repro.hypervisor import XenHypervisor


def run_per_trial(
    hv,
    activation,
    faults,
    *,
    detector=None,
    golden=None,
    benchmark="",
    followups=(),
    on_record=None,
    recover=None,
    plan=None,
):
    """Drop-in for :func:`~repro.faults.run_twin_batch` that ignores the
    plan and executes every twin as its own trial."""
    records = []
    for index, fault in enumerate(faults):
        record = run_spec_trial(
            hv, activation, fault,
            detector=detector, golden=golden,
            benchmark=benchmark, followups=followups,
        )
        if recover is not None:
            record = recover(record, index)
        records.append(record)
        if on_record is not None:
            on_record(record)
    return records


def per_trial_records(config, **kwargs):
    """The campaign's records with the batch scan replaced by per-trial runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "run_twin_batch", run_per_trial)
        return FaultInjectionCampaign(config, **kwargs).run().records


def interpreted_records(config, **kwargs):
    """The campaign's records on a machine that never translates."""
    hv = XenHypervisor(n_domains=config.n_domains, seed=config.seed, translate=False)
    return FaultInjectionCampaign(config, hypervisor=hv, **kwargs).run().records


def ladder_records(config, interval: int, **kwargs):
    """The campaign's records with goldens laddered every ``interval``
    instructions (0: no ladder, every trial replays the whole activation)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "LADDER_INTERVAL", interval)
        return FaultInjectionCampaign(config, **kwargs).run().records
