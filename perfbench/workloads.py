"""Benchmark workloads: CLI invocations of chemobranch and their output checks.

Each workload is a fixed list of CLI operations.  The configs are copies of
the acceptance configs (tests/test_acceptance.py) at the scales below; they
are copied rather than imported so that editing the acceptance suite never
changes what the benchmark measures.  The master seed is the benchmark's
``--seed``, passed to the program as ``--seed``.

Why each workload exists (the layer it stresses, and what it bypasses):

- micro_coupled: one coupled micro run at n0 = 4096.  The field layer does
  both jobs at ~5k points per step (``deposit`` writes the source,
  ``gradient_at`` reads the field) and the snapshot writer produces ~9 MB, so
  it carries the memory-per-founder signal.
- yule_pure_birth: 50 replicas of 200 founders with alpha = 0 and zero drift.
  The field layer is bypassed; per-cell noise streams (``clock_arrays``,
  ``wiener_increments``) and engine bookkeeping dominate.  Runs at 2 threads,
  where a replica pool pays or costs.
- mass_pde: 10^4 mass particles against a frozen field path (``gradient_at``
  and ``value_at`` at 10^4 points, no deposit), then the Strang solver with
  its order check (4 solves).
- converge_sweep: the n0 sweep 16..1024 with 16 replicas.  Deposit and point
  evaluation at small and medium m, plus the analysis layer (pairings,
  per-checkpoint gradients); the single-threaded bypass for replica
  parallelism.  The verdict is statistical: with 4 replicas it fails on
  about one seed in twenty (mostly d_M at n0 = 16 not above n0 = 64), with
  16 on about one in five thousand.  One invocation then takes ~26 s, so a
  run makes a single repetition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# tests/test_acceptance.py FULL_COUPLING
FULL_COUPLING = """\
model.sigma = 0.2
model.D = 1.0
model.r = 0.5
model.alpha = 0.5
model.lambda_bar = 0.6
birth.kind = logistic
birth.c = 0.3
birth.slope = 2.0
birth.center = 0.2
death.kind = constant
death.c = 0.1
drift.kind = chemotaxis
drift.chi = 0.5
drift.gsat = 2.0
grid.d = 1
grid.n = 128
grid.L = 8.0
init.mu0.kind = gaussian
init.mu0.center = 4.0
init.mu0.sd = 0.5
init.rho0.kind = bump
init.rho0.amp = 1.0
init.rho0.center = 4.0
init.rho0.width = 1.0
macro.scheme = semi_lagrangian
run.dt = 0.02
run.T = 1.0
run.seed = 1
"""

# tests/test_acceptance.py criterion 2: constant birth at the equality rate,
# no death, no drift, decoupled field
YULE = """\
model.sigma = 0.2
model.D = 1.0
model.r = 0.5
model.alpha = 0.0
model.lambda_bar = 0.5
birth.kind = constant
birth.c = 0.5
death.kind = zero
drift.kind = zero
drift.chi = 0.5
drift.gsat = 2.0
grid.d = 1
grid.n = 128
grid.L = 8.0
init.mu0.kind = gaussian
init.mu0.center = 4.0
init.mu0.sd = 0.5
init.rho0.kind = bump
init.rho0.amp = 1.0
init.rho0.center = 4.0
init.rho0.width = 1.0
macro.scheme = semi_lagrangian
run.dt = 0.02
run.T = 2.0
run.seed = 1
"""


class CheckFailed(Exception):
    """An output of the program does not satisfy its check."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, config text, thread count, check."""

    subcommand: str
    config: str
    threads: int
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Workload:
    """Named CLI operations; a run repeats them at least ``min_reps`` times."""

    name: str
    ops: tuple[Op, ...]
    min_reps: int = 3


def _rows(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV: '#' header lines and the column line dropped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _summary(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["summary"]


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _check_micro(n0: int) -> Callable[[Path], None]:
    def check(out: Path):
        kinds = [row[4] for row in _rows(out / "micro_events.csv")]
        branches = kinds.count("branch")
        deaths = kinds.count("death")
        _require(branches + deaths == len(kinds), "unknown event kind")
        final = int(_rows(out / "micro_live_counts.csv")[-1][1])
        _require(final == n0 + branches - deaths,
                 f"final live {final} != n0 {n0} + {branches} branches "
                 f"- {deaths} deaths")
    return check


def _check_yule(out: Path):
    _require(_summary(out / "yule_summary.json")["pass"] is True,
             "yule bound check did not pass")


def _check_converge(out: Path):
    _require(_summary(out / "converge_summary.json")["pass"] is True,
             "convergence verdict did not pass")


def _check_macro(out: Path):
    doc = _summary(out / "macro_order.json")
    _require(1.8 <= doc["observed_order"] <= 2.2 and doc["pass"] is True,
             f"Strang order {doc['observed_order']} outside [1.8, 2.2]")


def _check_mass(out: Path):
    means = [float(row[2]) for row in _rows(out / "mass_pairings.csv")
             if float(row[0]) == 0.0 and row[1] == "one"]
    _require(means == [1.0], f"pairing of 'one' at t=0 is {means}, not [1.0]")


def build(name: str, small: bool = False) -> Workload:
    """The named workload; ``small`` shrinks it for the smoke test."""
    if name == "micro_coupled":
        n0 = 64 if small else 4096
        return Workload(name, (
            Op("micro", FULL_COUPLING + f"run.n0 = {n0}\n", 1,
               _check_micro(n0)),))
    if name == "yule_pure_birth":
        n0, reps = (20, 4) if small else (200, 50)
        return Workload(name, (
            Op("yule", YULE + f"run.n0 = {n0}\nrun.replicas = {reps}\n", 2,
               _check_yule),))
    if name == "mass_pde":
        k = 200 if small else 10000
        cfg = FULL_COUPLING + f"mass.replicas = {k}\nmacro.order_check = true\n"
        return Workload(name, (Op("mass", cfg, 1, _check_mass),
                               Op("macro", cfg, 1, _check_macro)))
    if name == "converge_sweep":
        n0s, reps = ("16,64,256", 4) if small else ("16,64,256,1024", 16)
        cfg = FULL_COUPLING + (f"run.replicas = {reps}\n"
                               f"converge.n0_list = {n0s}\n")
        return Workload(name, (Op("converge", cfg, 1, _check_converge),),
                        min_reps=3 if small else 1)
    raise KeyError(name)


NAMES = ("micro_coupled", "yule_pure_birth", "mass_pde", "converge_sweep")
