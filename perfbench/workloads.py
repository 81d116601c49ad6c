"""The three workloads: set-up, fresh-process invocations, output checks.

Every invocation is ``repro.cli.main(argv)`` in a new interpreter (see
:mod:`child`), timed from spawn to exit.  A workload is a set-up step, an
argv, and the checks its outputs must pass; :func:`run_workload` drives one
benchmark run and assembles the result line.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean

from benchstats import median, tally
from layers import PER_LAYER

__all__ = ["END_TO_END", "SHAPES", "WORKLOADS", "Context", "become_subreaper", "run_workload"]

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>

#: End-to-end metric name -> unit, reported on every workload.
END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Workload shapes.  ``full`` is what the benchmark measures (its campaign is
#: a quarter of the CLI default, see README.md); ``smoke`` is
#: the same code path, shrunk for the benchmark's own tests.
SHAPES = {
    "full": {
        "injections": 1500, "scale": 0.25, "jobs": 2,
        "model_scale": 0.05, "hosts": 200, "vms_per_host": 8,
        "batch_rows": 1024, "queue_depth": 64, "burst_every": 64,
        "burst_rows": 80, "max_rows": 150_000,
        "import_probes": 5, "warm_setups": 2, "model_setups": 3,
    },
    "smoke": {
        "injections": 48, "scale": 0.02, "jobs": 2,
        "model_scale": 0.02, "hosts": 20, "vms_per_host": 4,
        "batch_rows": 256, "queue_depth": 16, "burst_every": 16,
        "burst_rows": 24, "max_rows": 20_000,
        "import_probes": 2, "warm_setups": 1, "model_setups": 2,
    },
}

#: Records digest and detector line of seed 5 at the full campaign shape,
#: pinned from the commit that introduced this benchmark.
PINNED = json.loads((HERE / "pinned.json").read_text())

DETECTOR_LINE = re.compile(r"^detector: .*$", re.M)
GOLDEN_LINE = re.compile(
    r"^golden capture: ([0-9.]+)s capturing live, [0-9.]+s loading cached "
    r"artifacts(?:, cache (\d+)/(\d+) hits)?$", re.M
)


class SetupFailed(Exception):
    """A set-up step failed; the run's outputs cannot be trusted."""


@dataclass
class Invocation:
    """One fresh-process CLI call and what it left behind."""

    label: str
    requested: int
    rc: int
    wall_s: float
    result: dict
    stdout: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Context:
    """Where one run works and what it has seen so far."""

    root: Path
    #: Scratch space of this run, removed when it ends.
    work: Path
    seed: int
    shape_name: str
    deadline: float
    run_id: str
    #: Values earlier runs in this checkout saw, keyed by seed and shape.
    expect_dir: Path
    #: Where the traced invocation writes its spans.
    trace_file: Path
    #: Values every invocation of this run must agree on (digests, lines).
    agreed: dict = field(default_factory=dict)

    @property
    def shape(self) -> dict:
        return SHAPES[self.shape_name]

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
        return env

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def agree(self, inv: Invocation, key: str, value) -> None:
        """Record ``value`` under ``key``; a different earlier value is a problem."""
        seen = self.agreed.setdefault(key, value)
        if seen != value:
            inv.problems.append(f"{key} differs between invocations: {value!r} vs {seen!r}")

    def expect(self, inv: Invocation, key: str, value, pinned=None) -> None:
        """Match ``value`` against the pin and the checkout's earlier runs."""
        if pinned is not None and value != pinned:
            inv.problems.append(f"{key} {value!r} != pinned {pinned!r}")
        path = self.expect_dir / (re.sub(r"[^A-Za-z0-9_.-]", "_", key) + ".json")
        if path.exists():
            earlier = json.loads(path.read_text())
            if earlier != value:
                inv.problems.append(f"{key} {value!r} != earlier run's {earlier!r}")
        else:
            self.expect_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(value))
            os.replace(tmp, path)


def _shm_segments() -> set[str]:
    try:
        return {p.name for p in Path("/dev/shm").iterdir() if p.name.startswith("xgold-")}
    except OSError:
        return set()


def become_subreaper() -> None:
    """Adopt orphaned descendants, so leftover pool workers can be reaped here.

    Without it an invocation's workers that outlive the CLI process are
    reparented to init, and this process can neither wait for them nor tell
    an unreaped zombie from a live worker.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):  # not Linux: orphans go to init
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait for each one.

    Pool workers share the child's group; after the child has been waited
    for, any survivor is this (subreaper) process's own child.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def invoke(ctx: Context, label: str, argv: list[str] | None, *,
           requested: int = 0, trace: bool = False) -> Invocation:
    """Run ``repro.cli.main(argv)`` in a fresh process; ``None`` only imports.

    The wall time runs from spawn to exit, less the child's bookkeeping
    after the program returned (span processing, latency percentiles).
    """
    slot = ctx.fresh_dir(f"inv-{label}")
    spec = {
        "argv": argv,
        "trace": trace,
        "run_id": f"{ctx.run_id}-{label}",
        "result": str(slot / "result.json"),
        "spans": str(ctx.trace_file) if trace else None,
    }
    if trace:
        ctx.trace_file.parent.mkdir(parents=True, exist_ok=True)
    (slot / "spec.json").write_text(json.dumps(spec))
    shm_before = _shm_segments()
    timeout = max(1.0, ctx.deadline - time.monotonic())
    with open(slot / "stdout", "wb") as out, open(slot / "stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(slot / "spec.json")],
            cwd=ctx.root, env=ctx.env, stdout=out, stderr=err,
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=timeout)
            wall = time.perf_counter() - started
        except subprocess.TimeoutExpired:
            rc, wall = -signal.SIGKILL, time.perf_counter() - started
        finally:
            proc.kill()
            proc.wait()
            _reap_group(proc.pid)
    result_path = Path(spec["result"])
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    wall -= result.get("post_s", 0.0)
    inv = Invocation(
        label=label, requested=requested, rc=rc, wall_s=wall, result=result,
        stdout=(slot / "stdout").read_text(errors="replace"),
    )
    if rc != 0:
        tail = (slot / "stderr").read_text(errors="replace").strip().splitlines()[-3:]
        inv.problems.append(f"exit code {rc}: {' | '.join(tail)}")
    elif not result:
        inv.problems.append("no result written")
    leaked = _shm_segments() - shm_before
    if leaked:
        inv.problems.append(f"shared-memory segments left behind: {sorted(leaked)}")
    return inv


# -- workloads ---------------------------------------------------------------


class Workload:
    """Set-up, one measured invocation, and the item count it completed."""

    name = ""

    def setup(self, ctx: Context) -> list[float]:
        """Prepare the run; returns the timed set-up repetitions."""
        raise NotImplementedError

    def invoke(self, ctx: Context, label: str, *, trace: bool = False) -> Invocation:
        raise NotImplementedError

    def items(self, inv: Invocation) -> int:
        """Work items the core call completed (trials or rows)."""
        raise NotImplementedError


class CampaignWorkload(Workload):
    """``repro-xentry campaign`` with a records file and an artifact store."""

    def argv(self, ctx: Context, artifacts: Path, output: Path, jobs: int) -> list[str]:
        argv = [
            "campaign", "--seed", str(ctx.seed),
            "--injections", str(ctx.shape["injections"]),
            "--scale", str(ctx.shape["scale"]),
            "--artifacts", str(artifacts), "--output", str(output),
        ]
        return argv + (["--jobs", str(jobs)] if jobs > 1 else [])

    def run_campaign(self, ctx: Context, label: str, artifacts: Path, *,
                     jobs: int, warm: bool, trace: bool = False) -> Invocation:
        output = ctx.work / f"records-{label}.jsonl"
        argv = self.argv(ctx, artifacts, output, jobs)
        inv = invoke(ctx, label, argv, requested=ctx.shape["injections"], trace=trace)
        inv.result["config"] = {"argv": argv}
        self.check(ctx, inv, output, warm=warm)
        output.unlink(missing_ok=True)
        return inv

    def check(self, ctx: Context, inv: Invocation, output: Path, *, warm: bool) -> None:
        requested = ctx.shape["injections"]
        shape_key = f"seed{ctx.seed}-inj{requested}-scale{ctx.shape['scale']}"
        default = (ctx.seed, requested, ctx.shape["scale"]) == (
            PINNED["seed"], PINNED["injections"], PINNED["scale"]
        )
        if not output.exists():
            inv.problems.append("no records file written")
            inv.result["completed"] = 0
            return
        data = output.read_bytes()
        count = max(0, data.count(b"\n") - 1)  # minus the header line
        inv.result["completed"] = count
        if count != requested:
            inv.problems.append(f"{count} records for {requested} trials requested")
        digest = hashlib.sha256(data).hexdigest()
        ctx.agree(inv, "records_sha256", digest)
        ctx.expect(inv, f"records-{shape_key}", digest,
                   PINNED["records_sha256"] if default else None)
        detector = DETECTOR_LINE.search(inv.stdout)
        if detector is None:
            inv.problems.append("no detector accuracy line")
        else:
            ctx.agree(inv, "detector", detector.group(0))
            ctx.expect(inv, f"detector-{shape_key}", detector.group(0),
                       PINNED["detector"] if default else None)
        golden = GOLDEN_LINE.search(inv.stdout)
        if golden is None or golden.group(2) is None:
            inv.problems.append("no golden-cache line")
            return
        hits, consulted = int(golden.group(2)), int(golden.group(3))
        inv.result["golden"] = {"hits": hits, "consulted": consulted}
        if warm and (hits != consulted or consulted == 0 or float(golden.group(1)) != 0):
            inv.problems.append(f"warm store served {hits}/{consulted} goldens")
        if not warm and hits != 0:
            inv.problems.append(f"cold store served {hits}/{consulted} goldens")

    def items(self, inv: Invocation) -> int:
        return inv.result.get("completed", 0)


class CampaignCold(CampaignWorkload):
    """First-run user: serial, a fresh empty store per invocation."""

    name = "campaign_cold"

    def setup(self, ctx: Context) -> list[float]:
        # Nothing to warm: time interpreter start plus package import, the
        # part of every invocation that precedes any work.
        times = []
        for i in range(ctx.shape["import_probes"]):
            inv = invoke(ctx, f"import-{i}", None)
            if not inv.ok:
                raise SetupFailed(f"import probe: {inv.problems}")
            times.append(inv.wall_s)
        return times

    def invoke(self, ctx: Context, label: str, *, trace: bool = False) -> Invocation:
        store = ctx.fresh_dir(f"store-{label}")
        try:
            return self.run_campaign(ctx, label, store, jobs=1, warm=False, trace=trace)
        finally:
            shutil.rmtree(store, ignore_errors=True)


class CampaignWarmJobs2(CampaignWorkload):
    """Repeat-run user: ``--jobs 2`` against a store set-up has warmed."""

    name = "campaign_warm_jobs2"

    def setup(self, ctx: Context) -> list[float]:
        # The first warming run fills the store the measured runs read; the
        # others repeat it into scratch stores so set-up time is a median.
        times = []
        self.store = ctx.fresh_dir("store-warm")
        for i in range(ctx.shape["warm_setups"]):
            store = self.store if i == 0 else ctx.fresh_dir(f"store-setup-{i}")
            inv = self.run_campaign(
                ctx, f"warming-{i}", store, jobs=ctx.shape["jobs"], warm=False
            )
            if store is not self.store:
                shutil.rmtree(store, ignore_errors=True)
            if not inv.ok:
                raise SetupFailed(f"warming run: {inv.problems}")
            times.append(inv.wall_s)
        return times

    def invoke(self, ctx: Context, label: str, *, trace: bool = False) -> Invocation:
        return self.run_campaign(
            ctx, label, self.store, jobs=ctx.shape["jobs"], warm=True, trace=trace
        )


class ServiceStream(Workload):
    """Fleet operator: ``serve --no-http`` with bursts past the queue depth."""

    name = "service_stream"

    def setup(self, ctx: Context) -> list[float]:
        shape = ctx.shape
        times, digests = [], set()
        for i in range(shape["model_setups"]):
            path = ctx.work / f"model-{i}.json"
            argv = ["train", "--scale", str(shape["model_scale"]),
                    "--seed", str(ctx.seed), "--save-model", str(path)]
            inv = invoke(ctx, f"train-{i}", argv)
            if not inv.ok or not path.exists():
                raise SetupFailed(f"model training: {inv.problems}")
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
            times.append(inv.wall_s)
        if len(digests) != 1:
            raise SetupFailed("model training is not deterministic")
        self.model = ctx.work / "model-0.json"
        return times

    def argv(self, ctx: Context, summary: Path) -> list[str]:
        s = ctx.shape
        return [
            "serve", "--model", str(self.model), "--seed", str(ctx.seed),
            "--hosts", str(s["hosts"]), "--vms-per-host", str(s["vms_per_host"]),
            "--batch-rows", str(s["batch_rows"]), "--queue-depth", str(s["queue_depth"]),
            "--burst-every", str(s["burst_every"]), "--burst-rows", str(s["burst_rows"]),
            "--max-rows", str(s["max_rows"]), "--no-http", "--summary", str(summary),
        ]

    def invoke(self, ctx: Context, label: str, *, trace: bool = False) -> Invocation:
        summary = ctx.work / f"summary-{label}.json"
        argv = self.argv(ctx, summary)
        inv = invoke(ctx, label, argv, requested=ctx.shape["max_rows"], trace=trace)
        inv.result["config"] = {"argv": argv}
        service = inv.result.get("service")
        if not summary.exists() or service is None:
            inv.problems.append("no service summary")
            return inv
        totals = json.loads(summary.read_text())
        emitted = totals["rows_emitted"]
        scored, dropped = totals["totals"]["rows_scored"], totals["totals"]["rows_dropped"]
        if scored + dropped != emitted:
            inv.problems.append(f"scored {scored} + dropped {dropped} != emitted {emitted}")
        if emitted != ctx.shape["max_rows"]:
            inv.problems.append(f"emitted {emitted} rows, cap {ctx.shape['max_rows']}")
        if totals != service["deterministic"]:
            inv.problems.append("summary file differs from the in-process report")
        digest = hashlib.sha256(json.dumps(totals, sort_keys=True).encode()).hexdigest()
        ctx.agree(inv, "summary_sha256", digest)
        s = ctx.shape
        ctx.expect(inv, f"summary-seed{ctx.seed}-hosts{s['hosts']}-rows{s['max_rows']}", digest)
        # Every emitted row gets a verdict or a counted drop: nothing fails.
        inv.result["completed"] = scored + dropped
        summary.unlink()
        return inv

    def items(self, inv: Invocation) -> int:
        return inv.result.get("service", {}).get("rows_scored", 0)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CampaignCold, CampaignWarmJobs2, ServiceStream)
}


# -- one benchmark run ---------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(measured: list[Invocation], setup_times: list[float],
               workload: Workload) -> dict:
    if not measured:
        return {name: _metric(0.0, unit) for name, unit in END_TO_END.items()}
    # Whole-run averages, not medians: the host's speed flips between a fast
    # and a slow state every few invocations, and a median over a handful of
    # invocations lands on one state or the other, where a mean weighs both
    # (README.md, "Measured steadiness").
    timed = [inv for inv in measured if inv.result.get("core_s")]
    core_s = sum(inv.result["core_s"] for inv in timed)
    metrics = {
        "wall_s": fmean(inv.wall_s for inv in measured),
        "throughput_per_s": sum(workload.items(inv) for inv in timed) / core_s if core_s else 0.0,
        "peak_rss_mb": fmean(inv.result.get("peak_rss_kb", 0) for inv in measured) / 1024,
        "setup_s": median(setup_times),
    }
    return {name: _metric(metrics[name], END_TO_END[name]) for name in END_TO_END}


def per_layer(traced: Invocation | None, measured: list[Invocation]) -> dict:
    if traced is None:
        return {name: _metric(0.0, unit) for name, unit in PER_LAYER.items()}
    layer = dict(traced.result.get("layers", {}))
    layer["unattributed_s"] = traced.wall_s - layer.pop("top_level_s", 0.0)
    layer["trace.overhead_s"] = traced.wall_s - median(inv.wall_s for inv in measured)
    service = [inv.result["service"] for inv in measured if "service" in inv.result]
    layer["service.decision_p50_ms"] = median(s.get("latency_p50_ms", 0.0) for s in service) if service else 0.0
    layer["service.decision_tail_ms"] = median(s.get("latency_tail_ms", 0.0) for s in service) if service else 0.0
    return {name: _metric(layer.get(name, 0.0), PER_LAYER[name]) for name in PER_LAYER}


def run_workload(workload: Workload, ctx: Context, *, seconds: float,
                 trace: bool, log) -> dict:
    """One benchmark run: set up, measure for ``seconds``, check, report."""
    invocations: list[Invocation] = []
    setup_problem = None
    setup_times: list[float] = []
    try:
        setup_times = workload.setup(ctx)
    except SetupFailed as exc:
        setup_problem = str(exc)
        log(f"set-up failed: {exc}")
    measured: list[Invocation] = []
    traced = None
    if setup_problem is None:
        started = time.monotonic()
        while not measured or time.monotonic() - started < seconds:
            measured.append(workload.invoke(ctx, f"run-{len(measured)}"))
        if trace:
            traced = workload.invoke(ctx, "traced", trace=True)
        invocations = measured + ([traced] if traced else [])
    for inv in invocations:
        status = "ok" if inv.ok else "FAILED: " + "; ".join(inv.problems)
        log(f"{inv.label}: wall {inv.wall_s:.3f}s, core {inv.result.get('core_s', 0):.3f}s, "
            f"{workload.items(inv)} items, {status}")
        service = inv.result.get("service", {})
        if "latency_tail_ms" in service:
            log(f"{inv.label}: decision latency p50 {service['latency_p50_ms']:.3f} ms, "
                f"p{service['latency_tail_p']:g} {service['latency_tail_ms']:.3f} ms "
                f"(n={service['latency_samples']})")
    attempted, failed = tally(
        (inv.requested, inv.result.get("completed", 0), inv.ok) for inv in invocations
    )
    if setup_problem is not None:
        # Nothing was measured: every item the run was for counts as failed.
        requested = ctx.shape["max_rows" if workload.name == "service_stream" else "injections"]
        attempted, failed = tally([(requested, 0, False)])
    metrics = per_layer(traced, measured) if trace else end_to_end(measured, setup_times, workload)
    return {
        "correct": setup_problem is None and all(inv.ok for inv in invocations),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_times,
        "invocations": [
            {"label": inv.label, "wall_s": inv.wall_s, "rc": inv.rc,
             "problems": inv.problems,
             **{k: v for k, v in inv.result.items() if k != "layers"}}
            for inv in invocations
        ],
    }
