"""Smoke test of the benchmark itself, at tiny scale.

Run from the repository root:  python3 -m pytest perfbench -q

It checks that every workload runs with every output check passing, that
every metric declared in BENCHMARK.json is emitted with its unit, and that
no span's children start before or end after it.
"""

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import run
import spans
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            cache[name, trace] = run.run_benchmark(name, SEED, 0, trace,
                                                   small=True)
        return cache[name, trace]
    return get


def test_declared_workloads_and_metrics_match_the_driver():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert declared == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_and_emits_every_metric(results, name, trace):
    result = results(name, trace)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 2 * len(workloads.build(name).ops)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_children_never_overrun_their_span(results, name):
    result = results(name, True)
    assert result["metrics"]["trace.overruns"]["value"] == 0
    doc = json.loads((run.ROOT / ".perfbench" / "traces"
                      / f"{name}-seed{SEED}.json").read_text())
    for inv in doc["invocations"]:
        times, overruns = spans.derive(inv["spans"])
        assert overruns == []
        assert all(v >= 0 for v in times.values())


def test_bypassed_layers_do_no_work(results):
    yule = results("yule_pure_birth", True)["metrics"]
    assert yule["field.deposit.calls"]["value"] == 0
    assert yule["field.gradient_at.calls"]["value"] == 0
    mass = results("mass_pde", True)["metrics"]
    assert mass["field.deposit.calls"]["value"] == 0
    assert mass["meanfield.mass_steps"]["value"] > 0


def test_derive_reports_self_time_and_overruns():
    rows = [(1, 0, "a", 0.0, 10.0), (2, 1, "b", 1.0, 4.0),
            (3, 1, "b", 3.0, 6.0), (4, 0, "c", 0.0, 1.0),
            (5, 4, "d", 0.5, 2.0)]
    times, overruns = spans.derive(rows)
    assert times["a"] == pytest.approx(5.0)  # children cover [1, 6]
    assert times["b"] == pytest.approx(6.0)
    assert times["c"] == pytest.approx(0.5)
    assert len(overruns) == 1 and overruns[0].startswith("c#4")


def test_worker_thread_spans_nest_under_the_submitting_span():
    rec = spans.Recorder()
    with rec.span("outer"):
        def work():
            with rec.span("inner"):
                time.sleep(0.001)
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {name: (sid, parent) for sid, parent, name, _, _ in rec.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert spans.derive(rec.spans)[1] == []


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "micro_coupled",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
