"""The traced run's view of the program: which public calls become spans.

:class:`LayerProbe` wraps, from outside, the public functions of each layer
(``repro.xentry``, ``ml``, ``faults``, ``engine``, ``analysis``,
``persist``, ``service``), reads the per-process counters the machine and
artifact layers already keep, and listens to the campaign engine's public
telemetry events.  :meth:`LayerProbe.metrics` turns all of that into the
per-layer figures listed in :data:`PER_LAYER`.

In a pooled campaign the spans cover the parent process only; worker-side
figures come from the engine's telemetry (artifact counters, shard times),
and the machine counters read 0 there.
"""

from __future__ import annotations

import time

from benchstats import median
from tracing import SpanRecorder, SpanTable

__all__ = ["LayerProbe", "PER_LAYER"]

#: Per-layer metric name -> unit.  The harness adds ``unattributed_s``,
#: ``trace.overhead_s`` and the two decision-latency figures.
PER_LAYER: dict[str, str] = {
    "xentry.collect_dataset.train_s": "s",
    "xentry.collect_dataset.test_s": "s",
    "xentry.collect_dataset.runs_per_s": "1/s",
    "xentry.train_and_evaluate_s": "s",
    "ml.fit_s": "s",
    "ml.predict_batch_s": "s",
    "faults.campaign_s": "s",
    "faults.golden_capture_s": "s",
    "faults.goldens": "count",
    "faults.twin_batch_s": "s",
    "faults.dead_twin_share": "share",
    "machine.instructions": "count",
    "machine.instructions_per_s": "1/s",
    "machine.translated_share": "share",
    "artifacts.golden_hits": "count",
    "artifacts.golden_misses": "count",
    "artifacts.hit_rate": "share",
    "artifacts.capture_s": "s",
    "artifacts.load_s": "s",
    "artifacts.bytes_written": "bytes",
    "artifacts.bytes_loaded": "bytes",
    "engine.startup_s": "s",
    "engine.shard_p50_s": "s",
    "engine.shard_max_s": "s",
    "engine.pool_efficiency": "share",
    "engine.retries": "count",
    "engine.worker_crashes": "count",
    "analysis.report_s": "s",
    "persist.save_records_s": "s",
    "service.fleet_s": "s",
    "service.submit_s": "s",
    "service.score_s": "s",
    "service.metrics_s": "s",
    "service.metric_updates": "count",
    "service.ticks": "count",
    "service.batches": "count",
    "service.dropped_share": "share",
    "service.decision_p50_ms": "ms",
    "service.decision_tail_ms": "ms",
    "trace.spans": "count",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}

#: Spans that make up the campaign phase (serial or engine path).
CAMPAIGN = ("faults.campaign", "engine.run")
ANALYSIS = (
    "analysis.coverage_by_benchmark",
    "analysis.coverage_by_fault_class",
    "analysis.summarize_recovery",
    "analysis.long_latency_breakdown",
    "analysis.latency_study",
    "analysis.undetected_breakdown",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbe:
    """Spans, counters and engine events for one traced invocation."""

    def __init__(self, run_id: str) -> None:
        self.recorder = SpanRecorder(run_id)
        self.service = None
        self.report = None
        self.engine = None
        self._engine_entered = 0.0
        self._shards: list[tuple[float, float]] = []  # (seen at, shard elapsed)
        self._before: dict = {}
        self._after: dict = {}
        self.spans: SpanTable | None = None

    # -- attach / detach ---------------------------------------------------

    def attach(self) -> None:
        from repro import analysis, persist, xentry
        from repro.analysis import LatencyStudy
        from repro.artifacts import runtime as artifacts_runtime
        from repro.engine import CampaignEngine
        from repro.faults import FaultInjectionCampaign, capture_golden, run_twin_batch
        from repro.faults.injector import trace_plan
        from repro.machine import lockstep
        from repro.machine.translator import CACHE
        from repro.ml import (
            CompiledRules,
            DecisionTreeClassifier,
            RandomForestClassifier,
            RandomTreeClassifier,
        )
        from repro.service import DetectionService, MicroBatchScorer
        from repro.service.fleet import FleetSimulator
        from repro.service.metrics import Counter, Gauge, Histogram

        rec = self.recorder
        fn = rec.patch_function
        method = rec.patch_method

        def dataset_name(args, kwargs):
            return "xentry.collect_dataset." + kwargs.get("stream", "train")

        def dataset_runs(args, kwargs, _result):
            config = args[0] if args else kwargs["config"]
            rec.add("collect_dataset.runs", config.fault_free_runs + config.injection_runs)

        fn(xentry.collect_dataset, dataset_name, prefix="repro", on_exit=dataset_runs)
        fn(xentry.train_and_evaluate, "xentry.train_and_evaluate", prefix="repro")
        for cls in (RandomTreeClassifier, DecisionTreeClassifier, RandomForestClassifier):
            method(cls, "fit", "ml.fit")
        for cls in (CompiledRules, persist.ModelArtifact, RandomForestClassifier):
            method(cls, "predict_batch", "ml.predict_batch")

        method(FaultInjectionCampaign, "run", "faults.campaign")
        fn(capture_golden, "faults.capture_golden", prefix="repro")
        fn(trace_plan, "faults.trace_plan", prefix="repro")
        fn(run_twin_batch, "faults.twin_batch", prefix="repro")
        method(CampaignEngine, "run", "engine.run", on_enter=self._engine_enter)

        for name in ANALYSIS:
            if name == "analysis.latency_study":
                method(LatencyStudy, "from_records", name)
            else:
                fn(getattr(analysis, name.split(".", 1)[1]), name, prefix="repro")
        fn(persist.save_records, "persist.save_records", prefix="repro")
        fn(persist.load_model, "persist.load_model", prefix="repro")

        method(DetectionService, "run", "service.run", on_exit=self._service_exit)
        method(FleetSimulator, "next_tick", "service.next_tick")
        method(MicroBatchScorer, "submit", "service.submit")
        method(MicroBatchScorer, "pump", "service.pump")
        method(MicroBatchScorer, "drain", "service.drain")
        metric_methods = (
            (Counter, "inc"), (Counter.Child, "inc"),
            (Gauge, "set"), (Gauge, "inc"), (Gauge, "dec"),
            (Gauge.Child, "set"), (Gauge.Child, "inc"), (Gauge.Child, "dec"),
            (Histogram, "observe"), (Histogram.Child, "observe"),
            # Defined once on the shared base class, so this covers all three.
            (Counter, "labels"),
        )
        for cls, attr in metric_methods:
            method(cls, attr, "service.metrics")

        self._counters = (CACHE.stats, lockstep.stats, artifacts_runtime.stats)
        self._before = self._read_counters()

    def _read_counters(self) -> dict:
        cache, twins, artifacts = (read() for read in self._counters)
        return {"cache": cache, "twins": twins, "artifacts": artifacts}

    def detach(self) -> None:
        """Unwrap everything and freeze the spans for :meth:`metrics`."""
        self._after = self._read_counters()
        self.recorder.detach()
        self.spans = self.recorder.table()

    def _engine_enter(self, args, _kwargs) -> None:
        from repro.engine import ShardFinished

        engine = args[0]
        self.engine = engine
        self._engine_entered = time.perf_counter()

        def on_event(event) -> None:
            if isinstance(event, ShardFinished) and not event.resumed:
                self._shards.append((time.perf_counter(), event.elapsed))

        engine.telemetry.subscribe(on_event)

    def _service_exit(self, args, _kwargs, result) -> None:
        self.service, self.report = args[0], result

    # -- results -----------------------------------------------------------

    def core_seconds(self) -> float:
        return self.spans.inclusive(CAMPAIGN) + self.spans.inclusive("service.run")

    def _delta(self, group: str) -> dict:
        before, after = self._before[group], self._after[group]
        return {k: after[k] - before.get(k, 0) for k in after
                if isinstance(after[k], (int, float))}

    def metrics(self) -> dict[str, float]:
        t = self.spans
        m: dict[str, float] = {}
        train = t.inclusive("xentry.collect_dataset.train")
        test = t.inclusive("xentry.collect_dataset.test")
        m["xentry.collect_dataset.train_s"] = train
        m["xentry.collect_dataset.test_s"] = test
        m["xentry.collect_dataset.runs_per_s"] = _ratio(
            self.recorder.counts.get("collect_dataset.runs", 0), train + test
        )
        m["xentry.train_and_evaluate_s"] = t.inclusive("xentry.train_and_evaluate")
        m["ml.fit_s"] = t.inclusive("ml.fit")
        m["ml.predict_batch_s"] = t.inclusive("ml.predict_batch")

        campaign = t.inclusive(CAMPAIGN)
        m["faults.campaign_s"] = campaign
        m["faults.golden_capture_s"] = t.inclusive(
            "faults.capture_golden", under=CAMPAIGN
        ) + t.inclusive(
            "faults.trace_plan", under=CAMPAIGN, not_under=("faults.twin_batch",)
        )
        m["faults.twin_batch_s"] = t.inclusive("faults.twin_batch", under=CAMPAIGN)
        twins = self._delta("twins")
        m["faults.dead_twin_share"] = _ratio(twins["dead_twins"], twins["twins"])

        cache = self._delta("cache")
        instructions = cache["translated_instructions"] + cache["interpreted_instructions"]
        m["machine.instructions"] = instructions
        m["machine.instructions_per_s"] = _ratio(instructions, train + test + campaign)
        m["machine.translated_share"] = _ratio(
            cache["translated_instructions"], instructions
        )

        # The engine ships worker-side artifact deltas in its telemetry; the
        # serial path counts in this process.
        if self.engine is not None:
            artifacts = dict(self.engine.telemetry.artifact_stats)
        else:
            artifacts = self._delta("artifacts")
        hits = artifacts.get("golden_hits", 0)
        misses = artifacts.get("golden_misses", 0)
        m["faults.goldens"] = hits + misses
        m["artifacts.golden_hits"] = hits
        m["artifacts.golden_misses"] = misses
        m["artifacts.hit_rate"] = _ratio(hits, hits + misses)
        m["artifacts.capture_s"] = artifacts.get("golden_capture_seconds", 0.0)
        m["artifacts.load_s"] = artifacts.get("golden_load_seconds", 0.0)
        m["artifacts.bytes_written"] = artifacts.get("artifact_bytes_written", 0)
        m["artifacts.bytes_loaded"] = artifacts.get("artifact_bytes_loaded", 0)

        m.update(self._engine_metrics(t))
        m["analysis.report_s"] = t.inclusive(ANALYSIS)
        m["persist.save_records_s"] = t.inclusive("persist.save_records")

        m["service.fleet_s"] = t.inclusive("service.next_tick")
        m["service.submit_s"] = t.exclusive("service.submit")
        m["service.score_s"] = t.exclusive(("service.pump", "service.drain"))
        m["service.metrics_s"] = t.inclusive("service.metrics")
        m["service.metric_updates"] = t.count("service.metrics")
        m["service.ticks"] = t.count("service.next_tick")
        if self.report is not None:
            totals = self.report.totals
            m["service.batches"] = totals.batches
            m["service.dropped_share"] = _ratio(totals.rows_dropped, self.report.rows_emitted)
        else:
            m["service.batches"] = 0
            m["service.dropped_share"] = 0.0
        m["trace.spans"] = len(t)
        m["top_level_s"] = t.top_level()
        return m

    def _engine_metrics(self, t: SpanTable) -> dict[str, float]:
        m = {
            "engine.startup_s": 0.0,
            "engine.shard_p50_s": 0.0,
            "engine.shard_max_s": 0.0,
            "engine.pool_efficiency": 0.0,
            "engine.retries": 0,
            "engine.worker_crashes": 0,
        }
        if self.engine is None:
            return m
        telemetry = self.engine.telemetry
        m["engine.retries"] = telemetry.retries
        m["engine.worker_crashes"] = telemetry.worker_crashes
        if self._shards:
            seen, elapsed = self._shards[0]
            m["engine.startup_s"] = seen - self._engine_entered - elapsed
            shard_times = [e for _, e in self._shards]
            m["engine.shard_p50_s"] = median(shard_times)
            m["engine.shard_max_s"] = max(shard_times)
            run_s = t.inclusive("engine.run")
            m["engine.pool_efficiency"] = _ratio(
                sum(shard_times), self.engine.jobs * run_s
            )
        return m
