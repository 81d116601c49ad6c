"""Benchmark runner: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign_cold --seed 5 --seconds 10 --trace 0

Workloads: ``campaign_cold``, ``campaign_warm_jobs2``, ``service_stream``
(see ``perfbench/README.md``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds one traced invocation and reports the per-layer
metrics instead.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
provenance and per-invocation detail, and the full record is kept in
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

#: Longest a run may take, end to end.
RUN_BUDGET_S = 170.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """sha256 over the program's source files: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, args, invocations: list[dict]) -> dict:
    numpy = next((inv["numpy"] for inv in invocations if "numpy" in inv), None)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "shape": args.shape,
        "argv": [inv["config"]["argv"] for inv in invocations if "config" in inv],
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import SHAPES, WORKLOADS, Context, become_subreaper, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=sorted(SHAPES), default="full",
                        help="workload size; 'smoke' is for the benchmark's own tests")
    parser.add_argument("--state-dir", default=".perfbench",
                        help="where results, traces and scratch space live "
                             "(relative to the checkout root)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"{root}: not a checkout of the program (no src/repro/cli.py)",
              file=sys.stderr)
        return 2
    # Relative paths keep the recorded argv free of where the checkout lives.
    state = Path(args.state_dir)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    ctx = Context(
        root=root,
        work=state / "runs" / run_id,
        seed=args.seed,
        shape_name=args.shape,
        deadline=time.monotonic() + RUN_BUDGET_S,
        run_id=run_id,
        expect_dir=state / "expect",
        trace_file=state / "traces" / f"{args.workload}.npz",
    )

    become_subreaper()

    def log(line: str) -> None:
        print(f"[{args.workload}] {line}", flush=True)

    try:
        outcome = run_workload(
            WORKLOADS[args.workload](), ctx,
            seconds=args.seconds, trace=bool(args.trace), log=log,
        )
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    record = {
        **outcome,
        "provenance": provenance(root, args, outcome["invocations"]),
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    mode = "trace" if args.trace else "e2e"
    (results / f"{args.workload}-{mode}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("provenance: " + json.dumps(record["provenance"]))
    for name, metric in outcome["metrics"].items():
        log(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
