"""chemobranch benchmark: CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One driver process runs the workload's CLI invocations one at a time, each
in a fresh interpreter (perfbench/child.py) with BLAS/OpenMP pinned to one
thread, so the only threads are the ones ``--threads`` asks for.  It repeats
the workload until ``--seconds`` have passed (at least three times, once for
converge_sweep), checks every output, and prints the medians.

--trace 0 prints the end-to-end metrics: ``run_s`` (wall time of the
workload's invocations), ``setup_s`` (fresh interpreter to runner start,
median over set-up probes and invocations), ``cell_steps_per_s`` (live
cells summed over steps, or mass-particle steps, per second of ``run_s``)
and ``peak_rss_mib`` (peak RSS above the post-import baseline).

--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics: self time and work counts per layer span, layer shares
of the traced ``run_s``, the ROADMAP baseline split, and the tracing
overhead.  The spans of the first traced repetition are written to
``.perfbench/traces/``.

An operation is one CLI invocation.  It fails on an unexpected exit code, an
exception, a failed output check, or an output file that differs from the
same file of the first repetition (every run is a pure function of config
and seed).  ``failed``/``attempted`` in the result line is the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BUDGET_S = 170.0  # the whole run, children included

END_TO_END = {"run_s": "s", "setup_s": "s", "cell_steps_per_s": "1/s",
              "peak_rss_mib": "MiB"}

# spans whose self time is reported as <name>.self_s
SELF_TIMED = (
    "randomness.clock_arrays", "randomness.wiener_increments",
    "randomness.mass_increments", "field.deposit", "field.gradient_at",
    "field.value_at", "field.semigroup_step", "field.gradient_grid",
    "field.convolve_density", "population.state",
    "population.population_to_lines", "microscopic.simulate_lines",
    "meanfield.simulate_mass_ensemble", "meanfield.solve_selfconsistent_field",
    "macroscopic.solve_pks", "analysis.pair_measure", "analysis.experiment",
    "cli",
)
COUNTED = {
    "randomness.clock_arrays.calls": "count",
    "randomness.clock_arrays.points": "count",
    "randomness.wiener_increments.calls": "count",
    "randomness.wiener_increments.rows": "count",
    "randomness.mass_increments.calls": "count",
    "field.deposit.calls": "count",
    "field.deposit.atoms": "count",
    "field.deposit.kernel_evals": "count",
    "field.deposit.bytes_computed": "B",
    "field.gradient_at.calls": "count",
    "field.gradient_at.points": "count",
    "field.value_at.calls": "count",
    "field.value_at.points": "count",
    "field.point_eval.phase_evals": "count",
    "field.point_eval.bytes_computed": "B",
    "field.semigroup_step.calls": "count",
    "field.gradient_grid.calls": "count",
    "field.convolve_density.calls": "count",
    "population.state.builds": "count",
    "population.state.rows": "count",
    "population.population_to_lines.rows": "count",
    "microscopic.simulate_lines.calls": "count",
    "microscopic.cell_steps": "count",
    "microscopic.events.branch": "count",
    "microscopic.events.death": "count",
    "microscopic.peak_live": "count",
    "microscopic.founders": "count",
    "meanfield.simulate_mass_ensemble.calls": "count",
    "meanfield.mass_steps": "count",
    "macroscopic.solve_pks.calls": "count",
    "macroscopic.solve_pks.steps": "count",
    "analysis.pair_measure.calls": "count",
}
LAYERS = ("randomness", "field", "population", "microscopic", "meanfield",
          "macroscopic", "analysis", "cli", "config")


def _per_layer_units() -> dict[str, str]:
    units = dict(COUNTED)
    units.update({f"{name}.self_s": "s" for name in SELF_TIMED})
    units.update({
        "config.load_s": "s",
        "cli.bytes_written": "B",
        "microscopic.accepted_events": "count",
        "microscopic.clock_points": "count",
        "microscopic.thinning_efficiency": "ratio",
        "baseline.deposit_share": "ratio",
        "baseline.point_eval_share": "ratio",
        "baseline.stream_setup_share": "ratio",
        "baseline.ms_per_founder": "ms",
        "baseline.rss_kib_per_founder": "KiB",
        "trace.run_s": "s",
        "trace.untraced_run_s": "s",
        "trace.overhead_s": "s",
        "trace.bookkeeping_s": "s",
        "trace.spans": "count",
        "trace.overruns": "count",
        "error_rate": "ratio",
    })
    units.update({f"share.{layer}": "ratio" for layer in LAYERS})
    return units


PER_LAYER = _per_layer_units()


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_record() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": _git_commit(),
            "loadavg": list(os.getloadavg())}


class Harness:
    """Runs the operations of one workload and keeps their records."""

    def __init__(self, workload, seed: int, work: Path, start: float,
                 seconds: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.start = start
        self.deadline = start + seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.machine = machine_record()
        self._digests: dict[int, dict[str, str]] = {}
        self._serial = 0
        self.env = dict(os.environ)
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1",
                        PYTHONPATH=os.pathsep.join(filter(None, [
                            str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.configs = []
        for i, op in enumerate(workload.ops):
            path = work / f"op{i}.cfg"
            path.write_text(op.config, encoding="utf-8")
            self.configs.append(path)

    def _spawn(self, mode: str, i: int) -> tuple[dict | None, Path]:
        op = self.workload.ops[i]
        self._serial += 1
        out = self.work / f"out{self._serial}"
        result = self.work / f"result{self._serial}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(result),
               op.subcommand, "--config", str(self.configs[i]),
               "--out", str(out), "--seed", str(self.seed),
               "--threads", str(op.threads)]
        timeout = max(1.0, self.budget_left())
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return None, out
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(proc.stderr[-4000:])
            return None, out
        doc = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        doc["setup_s"] = doc["t_ready"] - t_spawn
        self.machine.update(numpy=doc["numpy"], scipy=doc["scipy"])
        return doc, out

    def probe_setup(self) -> float | None:
        doc, _ = self._spawn("setup", 0)
        return None if doc is None else doc["setup_s"]

    def invoke(self, i: int, traced: bool) -> dict | None:
        """One checked CLI invocation; None when it failed."""
        self.attempted += 1
        op = self.workload.ops[i]
        doc, out = self._spawn("trace" if traced else "run", i)
        try:
            if doc is None:
                raise workloads.CheckFailed("child process failed")
            if doc["error"] is not None:
                raise workloads.CheckFailed(doc["error"].strip())
            if doc["exit_code"] != 0:
                raise workloads.CheckFailed(f"exit code {doc['exit_code']}")
            op.check(out)
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.iterdir())}
            first = self._digests.setdefault(i, digests)
            if digests != first:
                changed = sorted(k for k in first.keys() | digests.keys()
                                 if first.get(k) != digests.get(k))
                raise workloads.CheckFailed(
                    f"outputs differ from the first repetition: {changed}")
            doc["bytes_written"] = sum(p.stat().st_size
                                       for p in out.iterdir())
            return doc
        except (workloads.CheckFailed, OSError, ValueError, KeyError,
                IndexError) as exc:
            self.failed += 1
            self.failures.append(f"{op.subcommand}: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def rep(self, traced: bool) -> list[dict] | None:
        """Every operation of the workload once, in order."""
        docs = [self.invoke(i, traced) for i in range(len(self.workload.ops))]
        return None if any(d is None for d in docs) else docs

    def time_left(self, needed: float) -> bool:
        return time.monotonic() + needed <= self.deadline

    def budget_left(self) -> float:
        return self.start + BUDGET_S - time.monotonic()


def _work_count(docs) -> int:
    return sum(d["counts"].get("microscopic.cell_steps", 0)
               + d["counts"].get("meanfield.mass_steps", 0) for d in docs)


def _repeat(h: Harness, pattern, min_rounds: int,
            setups: list[float] | None = None) -> tuple[list, list]:
    """Run rounds of repetitions (``pattern`` says which are traced) until
    the deadline, at least ``min_rounds``; returns the successful untraced
    and traced repetitions, each a list of operation records.  With
    ``setups``, each round starts with a set-up probe whose time is
    appended there, so set-up samples spread over the whole run."""
    plain, traced, durations = [], [], []
    while True:
        t0 = time.monotonic()
        if setups is not None:
            probe = h.probe_setup()
            if probe is not None:
                setups.append(probe)
        for is_traced in pattern:
            docs = h.rep(is_traced)
            if docs is not None:
                (traced if is_traced else plain).append(docs)
        durations.append(time.monotonic() - t0)
        next_round = statistics.median(durations)
        if h.budget_left() < next_round or (
                len(durations) >= min_rounds and not h.time_left(next_round)):
            return plain, traced


def end_to_end(h: Harness) -> dict:
    h.probe_setup()  # warm-up: byte-compiles and fills the file cache
    setups: list[float] = []
    plain, _ = _repeat(h, (False,), h.workload.min_reps, setups)
    if not plain:
        return {}
    setups += [d["setup_s"] for docs in plain for d in docs]
    run = [sum(d["run_s"] for d in docs) for docs in plain]
    print(f"samples run_s={run} setup_s={setups}")
    return {
        "run_s": statistics.median(run),
        "setup_s": statistics.median(setups),
        "cell_steps_per_s": statistics.median(
            _work_count(docs) / r for docs, r in zip(plain, run)),
        "peak_rss_mib": statistics.median(
            max(d["rss_mib"] for d in docs) for docs in plain),
    }


def _sum_counts(docs) -> dict[str, int]:
    total: dict[str, int] = {}
    for d in docs:
        for k, v in d["counts"].items():
            total[k] = total.get(k, 0) + v
    return total


def _self_times(docs) -> tuple[dict[str, float], list[str]]:
    total: dict[str, float] = {}
    overruns: list[str] = []
    for d in docs:
        times, bad = spans.derive(d["spans"])
        overruns += bad
        for k, v in times.items():
            total[k] = total.get(k, 0.0) + v
    return total, overruns


def per_layer(h: Harness, trace_path: Path) -> dict:
    plain, traced = _repeat(h, (False, True), 1)
    if not plain or not traced:
        return {}
    counts = _sum_counts(traced[0])
    metrics: dict[str, float] = {k: counts.get(k, 0) for k in COUNTED}
    run_plain = statistics.median(sum(d["run_s"] for d in docs)
                                  for docs in plain)
    per_rep = []
    overruns: list[str] = []
    for docs in traced:
        times, bad = _self_times(docs)
        overruns += bad
        run = sum(d["run_s"] for d in docs)
        row = {f"{name}.self_s": times.get(name, 0.0) for name in SELF_TIMED}
        row["config.load_s"] = times.get("config", 0.0)
        row["trace.bookkeeping_s"] = times.get(spans.BOOKKEEPING, 0.0)
        row["trace.run_s"] = run
        for layer in LAYERS:
            row[f"share.{layer}"] = sum(
                v for k, v in times.items() if k.split(".")[0] == layer) / run
        row["baseline.deposit_share"] = times.get("field.deposit", 0.0) / run
        row["baseline.point_eval_share"] = (
            times.get("field.gradient_at", 0.0)
            + times.get("field.value_at", 0.0)) / run
        row["baseline.stream_setup_share"] = (
            times.get("randomness.clock_arrays", 0.0)
            + times.get("randomness.wiener_increments", 0.0)) / run
        per_rep.append(row)
    for key in per_rep[0]:
        metrics[key] = statistics.median(row[key] for row in per_rep)

    accepted = counts.get("microscopic.events.branch", 0) + counts.get(
        "microscopic.events.death", 0)
    points = counts.get("randomness.clock_arrays.points", 0)
    founders = counts.get("microscopic.founders", 0)
    rss_plain = statistics.median(max(d["rss_mib"] for d in docs)
                                  for docs in plain)
    metrics.update({
        "cli.bytes_written": sum(d["bytes_written"] for d in traced[0]),
        "microscopic.accepted_events": accepted,
        "microscopic.clock_points": points,
        "microscopic.thinning_efficiency": accepted / points if points else 0.0,
        "baseline.ms_per_founder":
            1000.0 * run_plain / founders if founders else 0.0,
        "baseline.rss_kib_per_founder":
            1024.0 * rss_plain / founders if founders else 0.0,
        "trace.untraced_run_s": run_plain,
        "trace.overhead_s": metrics["trace.run_s"] - run_plain,
        "trace.spans": sum(len(d["spans"]) for d in traced[0]),
        "trace.overruns": len(overruns),
    })
    for message in overruns[:10]:
        print(f"span overrun: {message}")
    if overruns:
        h.failures.append(f"{len(overruns)} spans overrun their parent")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": h.workload.name, "seed": h.seed, "machine": h.machine,
        "metrics": metrics,
        "invocations": [
            {"invocation": i, "subcommand": op.subcommand,
             "spans": [list(s) for s in d["spans"]]}
            for i, (op, d) in enumerate(zip(h.workload.ops, traced[0]))],
    }), encoding="utf-8")
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  small: bool = False) -> dict:
    """Run one workload and return the result object that is printed."""
    start = time.monotonic()
    workload = workloads.build(name, small)
    base = ROOT / ".perfbench"
    work = base / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        h = Harness(workload, seed, work, start, seconds)
        if trace:
            trace_path = base / "traces" / f"{name}-seed{seed}.json"
            metrics = per_layer(h, trace_path)
        else:
            metrics = end_to_end(h)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    if trace and metrics:
        metrics["error_rate"] = h.failed / h.attempted
    if set(metrics) != set(units):
        h.failures.append("no successful repetition to measure")
    print("machine " + json.dumps(h.machine, sort_keys=True))
    for message in h.failures:
        print(f"check failed: {message}")
    print(f"error_rate {h.failed}/{h.attempted}")
    return {
        "correct": not h.failures,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chemobranch" / "__init__.py").is_file():
        print(f"no chemobranch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
