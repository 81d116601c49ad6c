"""Command-line interface: drive the reproduction without writing code.

Installed as ``repro-xentry``.  Subcommands map one-to-one onto the paper's
evaluation artifacts::

    repro-xentry info                      # platform inventory
    repro-xentry rates [--mode pv|hvm]     # Fig. 3 activation-rate table
    repro-xentry train [--scale 3]         # Section III.B classifier pipeline
    repro-xentry train --jobs 4 --journal-dir runs --save-model model.json
    repro-xentry campaign [--injections N] # Figs. 8-10 + Table II
    repro-xentry campaign --scenario examples/mixed.yaml   # fault-model mix
    repro-xentry campaign --jobs 4 --journal run.jsonl [--resume]
    repro-xentry campaign --artifacts cache/       # golden artifact cache
    repro-xentry campaign --jobs 4 --retries 3 --shard-timeout 600 \
                          --chaos crash=0.2,seed=1   # engine self-test
    repro-xentry overhead                  # Fig. 7 fault-free overhead
    repro-xentry recovery                  # Fig. 11 recovery-cost estimate
    repro-xentry serve --model model.json --hosts 64 --max-rows 100000 \
                       --port 9109         # streaming detection daemon

All commands are deterministic in ``--seed``; ``serve`` additionally
guarantees that fixed-seed, row-capped runs produce bit-identical detection
totals regardless of ``--batch-rows``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.analysis import (
    BoxStats,
    LatencyStudy,
    PerfOverheadModel,
    coverage_by_benchmark,
    coverage_by_fault_class,
    dataset_from_journal,
    journal_progress,
    long_latency_breakdown,
    records_from_journal,
    summarize_recovery,
    undetected_breakdown,
)
from repro import counters
from repro.engine import (
    CampaignEngine,
    ChaosPolicy,
    EngineTelemetry,
    RetryPolicy,
    config_digest,
    parse_chaos_spec,
    stderr_progress,
)
from repro.engine.journal import JOURNAL_FORMAT, SampleJournal, TrialJournal
from repro.errors import CampaignConfigError, DatasetError
from repro.faults import CampaignConfig
from repro.hypervisor import ExitCategory, REGISTRY, XenHypervisor
from repro.ml import compile_tree
from repro.persist import load_model, load_records, save_model, save_records, save_rules
from repro.scenarios import load_scenario
from repro.service import (
    DetectionService,
    FleetConfig,
    OverflowPolicy,
    ServiceConfig,
)
from repro.workloads import BENCHMARK_NAMES, BENCHMARKS, VirtMode, WorkloadGenerator
from repro.xentry import (
    RecoveryCostModel,
    TrainingConfig,
    VMTransitionDetector,
    collect_dataset,
    estimate_recovery_overhead,
    train_and_evaluate,
)

__all__ = ["main"]


def _cmd_info(args: argparse.Namespace) -> int:
    hv = XenHypervisor(seed=args.seed, n_domains=args.domains)
    print("simulated platform")
    print(f"  domains:            {hv.n_domains} (Dom0 + {hv.n_domains - 1} guests)")
    print(f"  hypervisor text:    {hv.program.size:,} bytes "
          f"({len(hv.program):,} instructions)")
    print(f"  hypervisor heap:    {hv.memory_map.heap_size:,} bytes, "
          f"{len(hv.layout.all_slots)} structures")
    print("  exit reasons:")
    for category in ExitCategory:
        reasons = REGISTRY.in_category(category)
        print(f"    {category.value:<12} {len(reasons)}")
    print(f"    total        {len(REGISTRY)}")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    modes = [VirtMode.PV, VirtMode.HVM] if args.mode == "both" else [
        VirtMode.PV if args.mode == "pv" else VirtMode.HVM
    ]
    print("Fig. 3 — hypervisor activation frequency (activations/second)")
    for mode in modes:
        print(f"\n[{mode.value}]")
        print(f"{'benchmark':<14} {'min':>12} {'q25':>12} {'median':>12} "
              f"{'q75':>12} {'max':>12}")
        for profile in BENCHMARKS:
            generator = WorkloadGenerator(profile, mode, seed=args.seed)
            stats = BoxStats.from_samples(generator.rate_per_second(args.seconds))
            print(stats.row(profile.name))
    return 0


#: ``(stream, fault-free runs, injection runs)`` at ``--scale 1``.
_TRAINING_RUNS = (("train", 2000, 7800), ("test", 1000, 3900))


def _sample_journal(directory: str | Path, stream: str) -> Path:
    """Where ``train --journal-dir`` keeps one stream's sample journal."""
    return Path(directory) / f"{stream}.samples.jsonl"


def _missing_file(flag: str, path: str | Path) -> bool:
    """True, once said on stderr, when the input file ``path`` of ``flag``
    does not exist (the caller exits 2 before doing any work)."""
    if Path(path).is_file():
        return False
    print(f"{flag}: no such file: {path}", file=sys.stderr)
    return True


def _load_input(flag: str, load, path: str | Path):
    """``load(path)``, or ``None`` once said on stderr that the input file
    of ``flag`` is malformed (every loader raises :class:`DatasetError`;
    the caller exits 2 before doing any work)."""
    try:
        return load(path)
    except DatasetError as exc:
        print(f"{flag}: {exc}", file=sys.stderr)
        return None


def _train(args: argparse.Namespace):
    """Collect train+test sets, engine-backed (``--jobs``/``--journal-dir``)."""
    jobs = getattr(args, "jobs", 1)
    journal_dir = getattr(args, "journal_dir", None)
    resume = bool(journal_dir) and getattr(args, "resume", False)
    sets = {}
    for stream, free, inj in _TRAINING_RUNS:
        config = TrainingConfig(
            fault_free_runs=int(free * args.scale),
            injection_runs=int(inj * args.scale),
            seed=args.seed,
        )
        kwargs: dict = {}
        if journal_dir:
            Path(journal_dir).mkdir(parents=True, exist_ok=True)
            telemetry = EngineTelemetry()
            telemetry.subscribe(stderr_progress(telemetry))
            kwargs = {
                "journal_path": _sample_journal(journal_dir, stream),
                "resume": resume,
                "telemetry": telemetry,
            }
        sets[stream] = collect_dataset(config, stream=stream, jobs=jobs, **kwargs)
    return sets["train"], sets["test"]


def _cmd_train(args: argparse.Namespace) -> int:
    t0 = time.time()
    if args.datasets_from:
        journals = [
            _sample_journal(args.datasets_from, stream)
            for stream, _, _ in _TRAINING_RUNS
        ]
        if any(_missing_file("--datasets-from", path) for path in journals):
            return 2
        datasets = [
            _load_input("--datasets-from", dataset_from_journal, path)
            for path in journals
        ]
        if any(dataset is None for dataset in datasets):
            return 2
        train, test = datasets
        print(f"datasets rebuilt from sample journals in {args.datasets_from}")
    else:
        if args.journal_dir and any(
            _journal_clash("--journal-dir", SampleJournal,
                           _sample_journal(args.journal_dir, stream),
                           resume=args.resume)
            for stream, _, _ in _TRAINING_RUNS
        ):
            return 2
        train, test = _train(args)
    print(f"train: {train.describe()}")
    print(f"test:  {test.describe()}")
    models = {}
    for algo in ("decision_tree", "random_tree"):
        models[algo] = train_and_evaluate(train, test, algorithm=algo, seed=3)
        print()
        print(models[algo].confusion.report(algo))
    print(f"\n(paper: random tree 98.6% vs decision tree 96.1%; "
          f"elapsed {time.time() - t0:.0f}s)")
    if args.journal_dir:
        print(f"sample journals at {args.journal_dir}/"
              f"{{train,test}}.samples.jsonl (+ .manifest.json)")
    if args.save_model:
        save_model(models["random_tree"], args.save_model)
        print(f"trained model (rules + evaluation) written to {args.save_model}")
    if args.save_rules:
        save_rules(compile_tree(models["random_tree"].classifier), args.save_rules)
        print(f"deployable rule table written to {args.save_rules}")
    return 0


def _journal_clash(flag: str, journal_cls, path, *, resume: bool,
                   digest: str | None = None) -> bool:
    """True, once said on stderr, when the journal at ``path`` would stop
    the run after its slow phases: it exists and ``--resume`` was not
    given, it belongs to another campaign (``digest``), or it is malformed."""
    try:
        state = journal_cls.read(path)
    except DatasetError as exc:
        print(f"{flag}: {exc}", file=sys.stderr)
        return True
    if state is None:
        return False
    if not resume:
        print(f"{flag}: {path} already exists; pass --resume to continue it "
              "or remove the file", file=sys.stderr)
        return True
    if digest is not None and state.digest != digest:
        print(f"--resume: {path} belongs to a different campaign "
              f"(digest {state.digest}, expected {digest})", file=sys.stderr)
        return True
    return False


def _load_saved_records(path: str):
    """Load records from either a ``save_records`` file or an engine journal."""
    with open(path, "rb") as fh:
        header = fh.readline()
    if f'"{JOURNAL_FORMAT}"'.encode() in header:
        progress = journal_progress(path)
        print(f"journal: {progress['done_trials']}/{progress['total_trials']} "
              f"trials durable ({progress['fraction_done']:.0%}), "
              f"{len(progress['completed_shards'])}/{progress['n_shards']} shards")
        return records_from_journal(path)
    return load_records(path)


def _cmd_campaign(args: argparse.Namespace) -> int:
    t0 = time.time()
    if args.records_from:
        if _missing_file("--records-from", args.records_from):
            return 2
        records = _load_input("--records-from", _load_saved_records, args.records_from)
        if records is None:
            return 2
        return _report_records(records)
    if args.resume and not args.journal:
        print("--resume requires --journal", file=sys.stderr)
        return 2
    # Validate the scenario and the journal before the (comparatively slow)
    # detector training phase, so a typo or a journal clash fails in
    # milliseconds.
    config = CampaignConfig(
        n_injections=args.injections, seed=args.seed,
        recover=args.recover,
        recovery_hazard=args.recovery_hazard,
        artifacts=args.artifacts,
    )
    if args.scenario:
        try:
            scenario = load_scenario(args.scenario)
        except CampaignConfigError as exc:
            print(f"bad scenario: {exc}", file=sys.stderr)
            return 2
        config = scenario.apply(config)
    if args.journal and _journal_clash("--journal", TrialJournal, args.journal,
                                       resume=args.resume,
                                       digest=config_digest(config)):
        return 2
    train, test = _train(args)
    model = train_and_evaluate(train, test, algorithm="random_tree", seed=3)
    print(f"detector: accuracy {model.accuracy:.1%}, "
          f"FP {model.false_positive_rate:.2%}")
    detector = VMTransitionDetector.from_classifier(model.classifier)
    if args.scenario:
        print(f"scenario: {scenario.describe()}")
    telemetry = EngineTelemetry()
    telemetry.subscribe(stderr_progress(telemetry))
    engine = CampaignEngine(
        config,
        jobs=args.jobs,
        n_shards=max(4, 2 * args.jobs),
        detector=detector,
        journal_path=args.journal,
        telemetry=telemetry,
        retry=RetryPolicy(max_retries=args.retries, seed=args.seed),
        shard_timeout=args.shard_timeout,
        chaos=args.chaos,
    )
    result = engine.run(resume=args.resume)
    if args.journal:
        print(f"journal at {args.journal} "
              f"(manifest: {args.journal}.manifest.json)")
    print(f"\n{len(result)} injections, {len(result.manifested)} manifested "
          f"({time.time() - t0:.0f}s)")
    # Per-shard ledger deltas: the campaign phase alone, detector training
    # excluded.
    _print_counters(telemetry.counters)
    if args.output:
        save_records(result.records, args.output)
        print(f"records written to {args.output}")
    if not result.degraded:
        return _report_records(result.records)
    # Report what survived (a heavily-degraded campaign may not have enough
    # records for every table), then say why the run is incomplete on stderr
    # and exit non-zero so pipelines notice.
    if result.records:
        try:
            _report_records(result.records)
        except CampaignConfigError as exc:
            print(f"(analysis skipped on degraded records: {exc})")
    print(f"\nDEGRADED: {result.summary()}", file=sys.stderr)
    return 3


def _print_counters(counts) -> None:
    """The campaign phase's golden-capture, translation and twin lines."""
    rates = counters.derived(counts)
    capture = counts["golden_capture_seconds"]
    load = counts["golden_load_seconds"]
    hits = int(counts["golden_hits"])
    consulted = hits + int(counts["golden_misses"])
    if capture or load or consulted:
        cache_note = f", cache {hits}/{consulted} hits" if consulted else ""
        print(f"golden capture: {capture:.2f}s capturing live, "
              f"{load:.2f}s loading cached artifacts{cache_note}")
    if counts["block_executions"]:
        print(f"translation cache: {counts['blocks_compiled']} blocks compiled, "
              f"hit rate {rates['block_hit_rate']:.1%}, "
              f"{rates['translated_share']:.1%} of instructions translated")
    if counts["twins"]:
        print(f"twin batching: {counts['twins']} twins in "
              f"{counts['twin_batches']} batches, "
              f"{counts['dead_twins']} settled without execution "
              f"({rates['dead_twin_share']:.1%}), {counts['peeled_twins']} peeled")


def _report_records(records) -> int:
    print("\nFig. 8 — coverage by technique")
    for name, cov in coverage_by_benchmark(records).items():
        print(cov.row(name))
    # Scenario campaigns mix fault classes; show how coverage shifts across
    # them.  Single-model campaigns skip the section (historical output).
    by_class = coverage_by_fault_class(tuple(records))
    if len(by_class) > 2:  # classes + AVG
        print("\nFig. 8b — coverage by fault class")
        for name, cov in by_class.items():
            print(cov.row(name))
    summary = summarize_recovery(tuple(records))
    if summary.trials:
        print("\nRecovery — measured survival axis")
        for line in summary.lines():
            print(f"  {line}")
    print("\nFig. 9 — long-latency errors")
    for klass, (detected, total) in long_latency_breakdown(records).items():
        rate = f"{detected / total:.1%}" if total else "---"
        print(f"  {klass.value:<16} {detected}/{total} ({rate})")
    # A small campaign can finish with no detections or nothing undetected;
    # the analysis raises on such empty sets, so the report says so instead.
    print("\nFig. 10 — latency CDF")
    try:
        print(LatencyStudy.from_records(records).table([100, 300, 500, 700, 1000]))
    except CampaignConfigError:
        print("  (no detected faults with latencies)")
    print("\nTable II — undetected faults")
    try:
        breakdown = undetected_breakdown(records)
    except CampaignConfigError:
        print("  (no undetected manifested faults)")
    else:
        for kind, share in breakdown.items():
            print(f"  {kind.value:<16} {share:6.1%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.max_rows is None and args.duration is None:
        print("serve needs a stop condition: --max-rows or --duration",
              file=sys.stderr)
        return 2
    if _missing_file("--model", args.model):
        return 2
    artifact = _load_input("--model", load_model, args.model)
    if artifact is None:
        return 2
    accuracy = artifact.evaluation.get("accuracy")
    print(f"model: {artifact.name}"
          + (f" (held-out accuracy {accuracy:.1%})" if accuracy else ""))
    config = ServiceConfig(
        fleet=FleetConfig(
            hosts=args.hosts,
            vms_per_host=args.vms_per_host,
            seed=args.seed,
            inject_fraction=args.inject_fraction,
            burst_every=args.burst_every,
            burst_rows=args.burst_rows,
        ),
        batch_rows=args.batch_rows,
        queue_depth=args.queue_depth,
        policy=OverflowPolicy(args.policy),
        max_rows=args.max_rows,
        duration=args.duration,
    )
    service = DetectionService(config, artifact)
    print(f"fleet: {config.fleet.hosts} hosts x {config.fleet.vms_per_host} VMs, "
          f"seed {config.fleet.seed}, "
          f"inject fraction {config.fleet.inject_fraction:.1%}")

    def progress(emitted: int, scored: int) -> None:
        sys.stderr.write(f"\r{emitted:,} rows emitted, {scored:,} scored")
        sys.stderr.flush()

    server = None
    if not args.no_http:
        server = service.endpoint(port=args.port).start()
        print(f"serving /metrics and /healthz at {server.url}", flush=True)
    try:
        try:
            report = service.run(progress=progress)
        except KeyboardInterrupt:
            # Graceful drain: score what's queued, then summarize.
            service.request_stop()
            report = service.run()
        if args.summary:
            service.write_summary(args.summary)
        if server is not None and args.hold > 0:
            print(f"holding endpoint open for {args.hold:g}s (Ctrl-C to stop)",
                  flush=True)
            try:
                time.sleep(args.hold)
            except KeyboardInterrupt:
                pass
    finally:
        if server is not None:
            server.stop()
    sys.stderr.write("\r")
    print(report.summary())
    if args.summary:
        print(f"deterministic summary written to {args.summary}")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    model = PerfOverheadModel()
    print("Fig. 7 — fault-free performance overhead (10 runs per benchmark)")
    total = 0.0
    for profile in BENCHMARKS:
        study = model.study(profile, seed=args.seed)
        total += study.mean_full
        print(study.row())
    print(f"average full overhead: {total / len(BENCHMARKS):.2%} (paper: 2.5%)")
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    model = RecoveryCostModel()
    print("Fig. 11 — recovery overhead with false positives")
    print(f"(copy {model.copy_ns:.0f} ns/exit, FP rate "
          f"{model.false_positive_rate:.1%}, 100 repetitions)")
    total = 0.0
    for profile in BENCHMARKS:
        study = estimate_recovery_overhead(profile, model=model, seed=args.seed)
        total += study.mean
        print(f"  {profile.name:<12} mean {study.mean:7.3%}  "
              f"spread {study.spread:9.5%}")
    print(f"average: {total / len(BENCHMARKS):.2%} (paper: 2.7%)")
    return 0


def _int_at_least(minimum: int):
    """An argparse ``type=`` accepting integers >= ``minimum``, so a bad
    count exits 2 before detector training starts."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type=`` accepting floats > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _probability(*, allow_one: bool):
    """An argparse ``type=`` accepting probabilities in [0, 1], or in
    [0, 1) when ``allow_one`` is false."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {text!r}"
            ) from None
        if not (0.0 <= value < 1.0 or (allow_one and value == 1.0)):
            bounds = "[0, 1]" if allow_one else "[0, 1)"
            raise argparse.ArgumentTypeError(f"must be in {bounds}, got {text}")
        return value

    return parse


def _scale(text: str) -> float:
    """An argparse ``type=`` for ``--scale``: every run count ``_train``
    derives from it must be at least 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    smallest = min(min(free, inj) for _, free, inj in _TRAINING_RUNS)
    if not math.isfinite(value) or int(smallest * value) < 1:
        raise argparse.ArgumentTypeError(
            f"must be finite and at least {1 / smallest:g}, got {text}"
        )
    return value


def _chaos_spec(text: str) -> ChaosPolicy:
    """:func:`parse_chaos_spec` as an argparse ``type=``."""
    try:
        return parse_chaos_spec(text)
    except CampaignConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _output_path(text: str) -> str:
    """An argparse ``type=`` for a file to write, whose directory exists —
    so a typo fails before the work whose result it would hold."""
    if not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory of {text!r} does not exist")
    return text


def _port(text: str) -> int:
    """An argparse ``type=`` for a TCP port (0 picks an ephemeral one)."""
    value = _int_at_least(0)(text)
    if value > 65535:
        raise argparse.ArgumentTypeError(f"must be at most 65535, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xentry",
        description="Xentry (ICPP 2014) reproduction toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=5, help="root seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="platform inventory", parents=[common])
    p.add_argument("--domains", type=_int_at_least(1), default=3)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("rates", help="Fig. 3 activation-rate table", parents=[common])
    p.add_argument("--mode", choices=("pv", "hvm", "both"), default="both")
    p.add_argument("--seconds", type=_int_at_least(1), default=600)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("train", help="Section III.B classifier pipeline", parents=[common])
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="worker processes for sample collection "
                        "(default: 1, serial; datasets are bit-identical)")
    p.add_argument("--journal-dir", metavar="DIR",
                   help="journal collected samples to DIR/{train,test}"
                        ".samples.jsonl (crash-safe, resumable)")
    p.add_argument("--resume", action="store_true",
                   help="resume collection from --journal-dir, "
                        "re-running only missing shards")
    p.add_argument("--datasets-from", metavar="DIR",
                   help="skip collection; rebuild datasets from the sample "
                        "journals in DIR")
    p.add_argument("--save-model", metavar="PATH", type=_output_path,
                   help="write the random-tree model (compiled rules + "
                        "held-out evaluation) as JSON")
    p.add_argument("--save-rules", metavar="PATH", type=_output_path,
                   help="write the deployable rule table as JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("campaign", help="fault-injection campaign (Figs. 8-10)", parents=[common])
    # Every benchmark gets at least one trial: fewer would be silently raised.
    p.add_argument("--injections", type=_int_at_least(len(BENCHMARK_NAMES)),
                   default=6000)
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("--output", metavar="PATH", type=_output_path,
                   help="write trial records as JSON lines")
    p.add_argument("--records-from", metavar="PATH",
                   help="skip execution; re-analyze saved records or a journal")
    p.add_argument("--scenario", metavar="PATH",
                   help="declarative scenario file (YAML): fault-model "
                        "mixture, memory-subsystem targeting, workload "
                        "overrides; its campaign: section overrides CLI "
                        "flags (see examples/)")
    p.add_argument("--artifacts", metavar="DIR",
                   help="content-addressed golden artifact cache: load cached "
                        "golden runs from DIR instead of re-executing them, "
                        "save newly captured ones there (records are "
                        "bit-identical cold, warm or without a cache)")
    p.add_argument("--recover", choices=("reexecute", "microreboot", "ladder"),
                   default=None, metavar="POLICY",
                   help="run every detected trial through a recovery policy "
                        "(reexecute | microreboot | ladder) and record "
                        "survival, downtime and golden divergence")
    p.add_argument("--recovery-hazard", type=_probability(allow_one=False),
                   default=0.0, metavar="PROB",
                   help="probability of a second soft error striking during "
                        "a recovery attempt (deterministic per trial/attempt; "
                        "default: 0)")
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="worker processes for the campaign engine "
                        "(default: 1, serial; results are bit-identical)")
    p.add_argument("--journal", metavar="PATH", type=_output_path,
                   help="journal finished shards to PATH (crash-safe JSONL)")
    p.add_argument("--resume", action="store_true",
                   help="resume from --journal, skipping completed shards")
    p.add_argument("--retries", type=_int_at_least(0), default=2,
                   help="per-shard retry budget before quarantine (default: 2; "
                        "a degraded campaign exits with code 3)")
    p.add_argument("--shard-timeout", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="wall-clock watchdog per shard attempt "
                        "(pool mode; hung workers are killed and retried)")
    p.add_argument("--chaos", metavar="SPEC", type=_chaos_spec,
                   help="inject deterministic engine faults to exercise the "
                        "supervisor, e.g. '0.2' or "
                        "'crash=0.2,hard=0.05,hang=0.1,journal=0.05,seed=1'")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="streaming detection daemon (simulated fleet + /metrics)",
        parents=[common],
    )
    p.add_argument("--model", required=True, metavar="PATH",
                   help="model artifact from 'train --save-model'")
    p.add_argument("--hosts", type=_int_at_least(1), default=8,
                   help="simulated hypervisor hosts (default: 8)")
    p.add_argument("--vms-per-host", type=_int_at_least(1), default=4)
    p.add_argument("--max-rows", type=_int_at_least(1), default=None, metavar="N",
                   help="stop after N rows fleet-wide (deterministic mode: "
                        "totals are bit-identical across runs and batch sizes)")
    p.add_argument("--duration", type=_positive_float, default=None,
                   metavar="SECONDS",
                   help="stop after a wall-clock budget instead of a row cap")
    p.add_argument("--inject-fraction", type=_probability(allow_one=True),
                   default=0.02,
                   help="fraction of rows carrying an injected fault "
                        "(default: 0.02)")
    p.add_argument("--batch-rows", type=_int_at_least(1), default=256,
                   help="micro-batch size drained per classify_batch call")
    p.add_argument("--queue-depth", type=_int_at_least(1), default=1024,
                   help="bounded per-host queue depth (backpressure bound)")
    p.add_argument("--policy", choices=[pol.value for pol in OverflowPolicy],
                   default=OverflowPolicy.DROP_OLDEST.value,
                   help="full-queue policy (default: drop-oldest, counted "
                        "per host; block never drops)")
    p.add_argument("--burst-every", type=_int_at_least(0), default=0,
                   metavar="TICKS",
                   help="emit a burst every N ticks (exercises backpressure)")
    p.add_argument("--burst-rows", type=_int_at_least(0), default=0,
                   help="extra rows per burst tick per host")
    p.add_argument("--port", type=_port, default=0,
                   help="scrape endpoint port (default: 0 = ephemeral)")
    p.add_argument("--no-http", action="store_true",
                   help="run without the scrape endpoint")
    p.add_argument("--hold", type=float, default=0.0, metavar="SECONDS",
                   help="keep /metrics up this long after the stream ends "
                        "so scrapers can collect final totals")
    p.add_argument("--summary", metavar="PATH", type=_output_path,
                   help="write the deterministic totals as JSON (what the "
                        "bit-identical contract is diffed on)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("overhead", help="Fig. 7 fault-free overhead", parents=[common])
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("recovery", help="Fig. 11 recovery-cost estimate", parents=[common])
    p.set_defaults(func=_cmd_recovery)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
