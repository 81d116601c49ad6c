"""Tests for the benchmark's own logic.

Run from the checkout root::

    python3 -m pytest perfbench -q

The smoke tests run every workload end to end at a tiny size (about a
minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchstats import check_metric_name, percentile, tail_percentile, tally
from layers import PER_LAYER
from tracing import SpanRecorder, SpanTable, self_times
from workloads import END_TO_END, WORKLOADS, Context, Invocation, Workload, run_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time -----------------------------------------------------------------

#: A synthetic tree: a[0,10] > (b[1,4] > a[2,3]), c[5,9]; then d[10,12].
SPANS = {
    "names": ["a", "b", "c", "d"],
    "name_id": [0, 1, 0, 2, 3],
    "start": [0.0, 1.0, 2.0, 5.0, 10.0],
    "end": [10.0, 4.0, 3.0, 9.0, 12.0],
    "parent": [-1, 0, 1, 0, -1],
}


def test_self_time_is_duration_minus_covered_child_time():
    got = self_times(SPANS["start"], SPANS["end"], SPANS["parent"])
    assert got.tolist() == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_span_table_queries():
    t = SpanTable(**SPANS)
    assert t.top_level() == 12.0
    # The nested "a" lies inside the outer "a": counted once.
    assert t.inclusive("a") == 10.0
    assert t.count("a") == 1
    assert t.exclusive("a") == 3.0 + 1.0
    assert t.inclusive("a", under=("b",)) == 0.0  # the outer a is not under b
    assert t.inclusive("c", under=("a",)) == 4.0
    assert t.inclusive("b", not_under=("a",)) == 0.0
    assert t.inclusive(("b", "c")) == 3.0 + 4.0


def test_recorder_builds_the_tree_from_wrapped_calls():
    ticks = iter(range(100))
    rec = SpanRecorder("r1", clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = rec.wrap(leaf, "leaf")

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    assert rec.wrap(outer, "outer")() == 2
    t = rec.table()
    # outer [0,5] holds leaf [1,2] and leaf [3,4].
    assert t.names == ["outer", "leaf"]
    assert t.parent.tolist() == [-1, 0, 0]
    assert t.self_time.tolist() == [3.0, 1.0, 1.0]


def test_patch_method_restores_on_detach():
    class Base:
        def hello(self):
            return "hi"

    class Sub(Base):
        pass

    rec = SpanRecorder("r2")
    rec.patch_method(Sub, "hello", "greet")
    assert Sub().hello() == "hi" and Base().hello() == "hi"
    assert rec.table().count("greet") == 2
    rec.detach()
    assert "hello" not in Sub.__dict__ and Base.hello.__name__ == "hello"
    assert not hasattr(Base.hello, "__wrapped__")


# -- names, percentiles, failure tally -------------------------------------------


def test_metric_names_use_the_allowed_charset():
    for name in (*END_TO_END, *PER_LAYER):
        check_metric_name(name)
    for bad in ("", "_lead", "has space", "x/y", "a" * 65, "ünï"):
        with pytest.raises(ValueError):
            check_metric_name(bad)


def test_benchmark_json_matches_the_emitted_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END.values())
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize(
    ("n", "expected"),
    [(10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0),
     (40, 75.0), (39, None), (1, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100


def test_tally_counts_failed_invocations_in_full():
    assert tally([(100, 100, True)]) == (100, 0)
    assert tally([(100, 97, True)]) == (100, 3)  # missing trials fail
    assert tally([(100, 100, False)]) == (100, 100)  # failed check or exit
    assert tally([(100, 100, True), (100, 100, False)]) == (200, 100)


class _Scripted(Workload):
    """A workload whose invocations are canned, not spawned."""

    name = "scripted"

    def __init__(self, invocations):
        self.pending = list(invocations)

    def setup(self, ctx):
        return [0.5]

    def invoke(self, ctx, label, *, trace=False):
        return self.pending.pop(0)

    def items(self, inv):
        return inv.result.get("completed", 0)


def _ctx(tmp_path) -> Context:
    return Context(
        root=ROOT, work=tmp_path / "work", seed=1, shape_name="smoke",
        deadline=1e18, run_id="t", expect_dir=tmp_path / "expect",
        trace_file=tmp_path / "t.npz",
    )


def _inv(rc=0, problems=(), completed=50):
    return Invocation(
        label="run-0", requested=50, rc=rc, wall_s=1.0,
        result={"core_s": 0.5, "completed": completed, "peak_rss_kb": 1024},
        stdout="", problems=list(problems),
    )


@pytest.mark.parametrize(
    "inv",
    [_inv(rc=1, problems=["exit code 1"]), _inv(problems=["records differ"])],
    ids=["nonzero-exit", "failed-check"],
)
def test_failed_run_counts_every_item_failed(tmp_path, inv):
    out = run_workload(_Scripted([inv]), _ctx(tmp_path), seconds=0, trace=False,
                       log=lambda line: None)
    assert out["correct"] is False
    assert out["attempted"] == out["failed"] == 50


def test_clean_run_reports_every_end_to_end_metric(tmp_path):
    out = run_workload(_Scripted([_inv()]), _ctx(tmp_path), seconds=0, trace=False,
                       log=lambda line: None)
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 50, 0)
    assert list(out["metrics"]) == list(END_TO_END)
    assert out["metrics"]["throughput_per_s"]["value"] == 100.0
    assert out["metrics"]["setup_s"]["value"] == 0.5


def test_expectation_mismatch_is_a_problem(tmp_path):
    ctx = _ctx(tmp_path)
    first, second = _inv(), _inv()
    ctx.expect(first, "records-x", "aaa")
    ctx.expect(second, "records-x", "bbb")
    assert first.ok and not second.ok
    third = _inv()
    ctx.expect(third, "records-y", "ccc", pinned="ddd")
    assert not third.ok


# -- end to end ------------------------------------------------------------------


def _run(args, cwd, state):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--state-dir", str(state)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_a_result_line(tmp_path, workload, trace):
    out = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--shape", "smoke"],
        ROOT, tmp_path,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert not list((tmp_path / "runs").iterdir())  # scratch space removed


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
