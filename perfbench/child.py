"""One invocation of the program's CLI in a fresh process, measured from inside.

Run as ``python3 perfbench/child.py SPEC.json`` with the checkout's ``src``
on ``PYTHONPATH``.  The spec names the ``repro.cli.main`` argv, whether to
trace, and where to write the result.  Without tracing the only thing
attached to the program is a pair of timestamps around each core public
call (``FaultInjectionCampaign.run``, ``CampaignEngine.run``,
``DetectionService.run``).  With tracing, :mod:`layers` wraps the public
functions of every layer and the result carries the per-layer figures.

An argv of ``null`` only imports the CLI and exits: the set-up probe that
times interpreter start and package import.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from benchstats import median, percentile, tail_percentile


class CoreTimer:
    """Two timestamps around each core public call, nothing else."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.service = None
        self.report = None

    def attach(self, cls: type, *, keep_report: bool = False) -> None:
        """Time ``cls.run``; with ``keep_report`` also keep its object and result."""
        original = cls.__dict__["run"]
        timer = self

        def timed(obj, *args, **kwargs):
            started = time.perf_counter()
            result = original(obj, *args, **kwargs)
            timer.seconds += time.perf_counter() - started
            if keep_report:
                timer.service, timer.report = obj, result
            return result

        cls.run = timed


def _service_summary(service, report) -> dict:
    """Deterministic totals plus the decision-latency distribution."""
    latencies = service.scorer.latencies
    summary = {
        "deterministic": report.deterministic_dict(),
        "rows_scored": report.totals.rows_scored,
        "latency_samples": len(latencies),
    }
    if latencies:
        tail = tail_percentile(len(latencies))
        summary["latency_p50_ms"] = median(latencies) * 1e3
        if tail is not None:
            summary["latency_tail_p"] = tail
            summary["latency_tail_ms"] = percentile(latencies, tail) * 1e3
    return summary


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import numpy

    import repro.cli as cli
    from repro.engine import CampaignEngine
    from repro.faults import FaultInjectionCampaign
    from repro.service import DetectionService

    result: dict = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    rc = 0
    if spec["argv"] is not None:
        timer = CoreTimer()
        probe = None
        if spec["trace"]:
            import layers

            probe = layers.LayerProbe(spec["run_id"])
            probe.attach()
        else:
            timer.attach(FaultInjectionCampaign)
            timer.attach(CampaignEngine)
            timer.attach(DetectionService, keep_report=True)
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        finished = time.perf_counter()
        if probe is not None:
            probe.detach()
            result["layers"] = probe.metrics()
            probe.recorder.write(spec["spans"], probe.spans)
            service, report = probe.service, probe.report
            result["core_s"] = probe.core_seconds()
        else:
            service, report = timer.service, timer.report
            result["core_s"] = timer.seconds
        if report is not None:
            result["service"] = _service_summary(service, report)
        # The benchmark's own bookkeeping after the program returned; the
        # harness takes it out of the invocation's wall time.
        result["post_s"] = time.perf_counter() - finished
    result["rc"] = rc
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = max(own, workers)
    Path(spec["result"]).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
