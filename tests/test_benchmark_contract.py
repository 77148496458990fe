"""The benchmark's use of the package, checked at small scale.

``perfbench/spans.py`` wraps package functions and reads attributes of what
they return (``MicroTrajectory.live_counts``, ``.event_log`` and
``.founder_lines``, ``MassEnsemble.replica_ids``, ``PksSolution.times``).
If one of them is renamed, every traced operation of the benchmark exits
with an internal error, and only the benchmark would show it.  This runs
each operation of every small workload once, traced, through
``perfbench/child.py`` as the benchmark does, and requires a clean exit and
outputs that pass the workload's own check; for the ``micro`` operation the
``population.population_to_lines.rows`` count must equal the cell rows of
its snapshot file.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEED = 3


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
OPS = [(name, i) for name in workloads.NAMES
       for i in range(len(workloads.build(name, small=True).ops))]


@pytest.mark.parametrize("name,index", OPS,
                         ids=[f"{name}-{i}" for name, i in OPS])
def test_traced_operation_exits_cleanly(tmp_path, name, index):
    op = workloads.build(name, small=True).ops[index]
    config = tmp_path / "op.cfg"
    config.write_text(op.config, encoding="utf-8")
    out, result = tmp_path / "out", tmp_path / "result.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", str(result),
         op.subcommand, "--config", str(config), "--out", str(out),
         "--seed", str(SEED), "--threads", str(op.threads)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text(encoding="utf-8"))
    assert doc["error"] is None, doc["error"]
    assert doc["exit_code"] == 0, proc.stderr
    op.check(out)
    if op.subcommand == "micro":
        # the writer's span counts every row it writes, so a rename of
        # what it wraps cannot zero that metric unseen
        with (out / "micro_snapshots.txt").open(encoding="utf-8") as f:
            rows = sum(not line.startswith("#") for line in f)
        assert doc["counts"]["population.population_to_lines.rows"] == rows
