"""Acceptance suite: each criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
CLI experiments write into one session directory and are re-executed by the
final determinism criterion with the other worker-thread count.
"""

import json
import time
from functools import partial

import numpy as np
import pytest
from conftest import mass_pairing, model_params, record, record_mass

from chemobranch import (Field, GridSpec, NoiseUniverse, RateSpec,
                         coupling_experiment, empirical, integrate, mean_se,
                         semigroup_step, simulate_hybrid, solve_pks,
                         solve_selfconsistent_field)
from chemobranch.analysis import TestFunctionBank
from chemobranch.cli import main

SEED = 1

FULL_COUPLING = """
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


full_coupling_params = partial(model_params, advection="semi_lagrangian")


class Session:
    def __init__(self, root):
        self.root = root
        self.runs = []  # (subcommand, config path, first-pass output dir)
        self.log = root / "acceptance_log.txt"

    def run_cli(self, name, subcommand, config_text, threads=8):
        cfg = self.root / f"{name}.cfg"
        cfg.write_text(config_text)
        out = self.root / name
        code = main([subcommand, "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)])
        self.runs.append((subcommand, str(cfg), out, threads))
        return code, out

    def report(self, number, name, ok, detail):
        from conftest import record_acceptance_line

        line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        print(line)
        record_acceptance_line(line)
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert ok, line


@pytest.fixture(scope="module")
def acc(tmp_path_factory):
    return Session(tmp_path_factory.mktemp("acceptance"))


def test_01_conservation_degenerate_case(acc):
    config = FULL_COUPLING.replace("birth.kind = logistic", "birth.kind = zero")
    config = "\n".join(l for l in config.splitlines()
                       if not l.startswith(("birth.c", "birth.slope",
                                            "birth.center", "death.c"))) + "\n"
    config = config.replace("death.kind = constant", "death.kind = zero")
    config = config.replace("run.dt = 0.02", "run.dt = 0.01")
    config += "run.n0 = 1000\n"
    t0 = time.perf_counter()
    code, out = acc.run_cli("conservation", "micro", config)
    elapsed = time.perf_counter() - t0
    counts = [int(line.split(",")[1]) for line in
              (out / "micro_live_counts.csv").read_text().splitlines()[3:]]
    events = (out / "micro_events.csv").read_text().splitlines()[3:]
    ok = (code == 0 and len(counts) == 101 and all(c == 1000 for c in counts)
          and len(events) == 0 and elapsed < 30.0)
    acc.report(1, "conservation", ok,
               f"live=={counts[0]}..{counts[-1]} at 101 snapshots, "
               f"{len(events)} events, {elapsed:.1f}s")


def test_02_yule_bound(acc):
    config = FULL_COUPLING.replace("birth.kind = logistic",
                                   "birth.kind = constant")
    config = "\n".join(l for l in config.splitlines()
                       if not l.startswith(("birth.slope", "birth.center",
                                            "death.c"))) + "\n"
    config = config.replace("birth.c = 0.3", "birth.c = 0.5")
    config = config.replace("death.kind = constant", "death.kind = zero")
    config = config.replace("model.lambda_bar = 0.6", "model.lambda_bar = 0.5")
    config = config.replace("model.alpha = 0.5", "model.alpha = 0.0")
    config = config.replace("drift.kind = chemotaxis", "drift.kind = zero")
    config = config.replace("run.T = 1.0", "run.T = 2.0")
    config += "run.n0 = 200\nrun.replicas = 200\n"
    t0 = time.perf_counter()
    code, out = acc.run_cli("yule", "yule", config)
    elapsed = time.perf_counter() - t0
    s = json.loads((out / "yule_summary.json").read_text())["summary"]
    target = np.exp(1.0)
    ok = (code == 0 and s["pass"]
          and abs(s["mean"] - target) <= 3 * s["se"] and elapsed < 120.0)
    acc.report(2, "yule-bound", ok,
               f"mean={s['mean']:.4f} vs e={target:.4f}, se={s['se']:.4f}, "
               f"bound-check={'PASS' if s['pass'] else 'FAIL'}, {elapsed:.1f}s")


def test_03_field_solver_exactness(acc):
    # mode chosen so the amplitude stays well above the double round-off
    # floor over the whole horizon; each step is checked against the exact
    # one-step decay of the previous numerical state
    grid = GridSpec(1, 128, 8.0)
    D, r, dt, m = 1.0, 0.5, 0.02, 1
    x = grid.axis_coords()
    rho = Field(grid, np.cos(2 * np.pi * m * x / grid.extent))
    decay = np.exp(-(D * (2 * np.pi * m / grid.extent) ** 2 + r) * dt)
    worst = 0.0
    for _ in range(200):
        stepped = semigroup_step(rho, None, dt, D, r, 0.0)
        err = np.max(np.abs(stepped.values - decay * rho.values))
        worst = max(worst, err / np.max(np.abs(decay * rho.values)))
        rho = stepped
    ok = worst < 1e-8
    acc.report(3, "field-exactness", ok,
               f"per-step relative error {worst:.2e} over 200 steps")


def test_04_macroscopic_order(acc):
    config = FULL_COUPLING + "macro.order_check = true\n"
    t0 = time.perf_counter()
    code, out = acc.run_cli("macro_order", "macro", config)
    elapsed = time.perf_counter() - t0
    doc = json.loads((out / "macro_order.json").read_text())["summary"]
    ok = code == 0 and 1.8 <= doc["observed_order"] <= 2.2 and elapsed < 60.0
    acc.report(4, "strang-order", ok,
               f"observed order {doc['observed_order']:.3f}, {elapsed:.1f}s")


def test_05_mean_field_equality(acc):
    # 1e4 mass-particle replicas against 1e3 single-line branching replicas
    params = full_coupling_params()
    t0 = time.perf_counter()
    scf = solve_selfconsistent_field(params, "macroscopic")
    universe = NoiseUniverse(SEED, 1)
    times = [0.2, 0.5, 1.0]
    _, X, M = record_mass(params, scf.rho_path, universe.child("mass"), 10_000)
    runs = [record(simulate_hybrid, params, scf.rho_path,
                   universe.child("hybrid", r)) for r in range(1000)]
    bank = TestFunctionBank.default_for_grid(params.grid)
    phis = [("bump_wide", bank.functions[1]), ("bump_narrow", bank.functions[5]),
            ("one", lambda x: np.ones(len(np.atleast_2d(x))))]
    worst = 0.0
    ok = True
    for t in times:
        k = int(round(t / params.dt))
        for name, phi in phis:
            m_mean, m_se = mass_pairing(X, M, phi, k)
            h_mean, h_se = mean_se([
                integrate(empirical(states[k], len(traj.founder_lines)), phi)
                for traj, states, _ in runs])
            z = abs(m_mean - h_mean) / np.hypot(m_se, h_se)
            worst = max(worst, z)
            ok = ok and z <= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    acc.report(5, "mean-field-equality", ok,
               f"9 pairings, worst |diff|={worst:.2f} combined SE, {elapsed:.1f}s")


def test_06_monte_carlo_pde_cross_validation(acc):
    # the total-mass band is extremely tight (tiny mass variance), so dt is
    # sized to keep the O(dt) particle-discretization bias inside 3 SE
    params = full_coupling_params(dt=0.005)
    t0 = time.perf_counter()
    sol = solve_pks(params)
    scf = solve_selfconsistent_field(params, "macroscopic")
    _, X, M = record_mass(params, scf.rho_path,
                          NoiseUniverse(SEED, 1).child("mc"), 10_000)
    bank = TestFunctionBank.default_for_grid(params.grid)
    phis = {"bump_wide": bank.functions[1], "bump_narrow": bank.functions[5],
            "one": lambda x: np.ones(len(np.atleast_2d(x)))}
    grid = params.grid
    ok = True
    worst = 0.0
    bands = 0
    for name, phi in phis.items():
        phi_nodes = np.asarray(phi(grid.node_coords())).reshape(grid.shape)
        for t in (0.2, 0.5, 1.0):
            k = int(round(t / params.dt))
            pde = float(np.sum(sol.p_path[k].values * phi_nodes)
                        * grid.cell_volume)
            mc, se = mass_pairing(X, M, phi, k)
            diff = abs(pde - mc)
            # round-off allowance keeps a zero-variance band comparable
            ok = ok and diff <= 3.0 * se + 1e-9 * (1.0 + abs(pde))
            worst = max(worst, diff / (3 * se) if se else 0.0)
            bands += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    acc.report(6, "mc-pde-cross-validation", ok,
               f"{bands} bands, worst diff at {worst:.2f} of the "
               f"3-SE band, {elapsed:.1f}s")


def test_07_hydrodynamic_limit_trend(acc):
    config = FULL_COUPLING + ("run.replicas = 20\n"
                              "converge.n0_list = 16,64,256,1024\n")
    t0 = time.perf_counter()
    code, out = acc.run_cli("converge", "converge", config)
    elapsed = time.perf_counter() - t0
    s = json.loads((out / "converge_summary.json").read_text())["summary"]
    dm, fl = s["d_M"], s["field"]
    ok = (code == 0 and dm["strictly_decreasing"]
          and -0.7 <= dm["slope"] <= -0.3
          and fl["strictly_decreasing"] and elapsed < 1800.0)
    acc.report(7, "hydrodynamic-trend", ok,
               f"d_M means {['%.4f' % m for m in dm['means']]}, "
               f"slope={dm['slope']:.3f}, field decreasing="
               f"{fl['strictly_decreasing']}, {elapsed:.0f}s")


COUPLE_CONFIG = """
model.sigma = 0.2
model.D = 1.0
model.r = 0.5
model.alpha = 2.0
model.lambda_bar = 0.8
birth.kind = logistic
birth.c = 0.5
birth.slope = 5.0
birth.center = 0.5
death.kind = constant
death.c = 0.1
drift.kind = chemotaxis
drift.chi = 1.5
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
run.T = 1.5
run.seed = 1
run.replicas = 20
couple.n0_list = 16,64,256,1024
couple.eps = 0.05,0.2
"""


def test_08_pathwise_coupling(acc):
    t0 = time.perf_counter()
    code, out = acc.run_cli("couple", "couple", COUPLE_CONFIG)
    s = json.loads((out / "couple_summary.json").read_text())["summary"]
    trend_ok = all(s[f"exceed_{eps:g}"]["non_increasing_overlap"]
                   for eps in (0.05, 0.2))

    # decoupled case: identical streams and fields force S = 0 exactly
    params = full_coupling_params(alpha=0.0, birth=RateSpec("zero"),
                                  death=RateSpec("zero"))
    dec = coupling_experiment(params, [16, 64], 10, [0.05, 0.2],
                              NoiseUniverse(SEED, 1))
    decoupled_ok = dec.summary["d_X_sup"]["max_value"] == 0.0
    elapsed = time.perf_counter() - t0
    ok = code == 0 and trend_ok and decoupled_ok and elapsed < 1800.0
    acc.report(8, "pathwise-coupling", ok,
               f"exceed(0.05)={['%.2f' % p for p in s['exceed_0.05']['phat']]}, "
               f"exceed(0.2)={['%.2f' % p for p in s['exceed_0.2']['phat']]}, "
               f"decoupled max S={dec.summary['d_X_sup']['max_value']}, "
               f"{elapsed:.0f}s")


def test_09_determinism_across_reruns_and_threads(acc):
    assert acc.runs, "earlier criteria register the experiments to rerun"
    checked = 0
    mismatches = []
    for i, (subcommand, cfg, first_out, threads) in enumerate(acc.runs):
        other = 1 if threads != 1 else 8
        out2 = acc.root / f"rerun_{i}_{subcommand}"
        code = main([subcommand, "--config", cfg, "--out", str(out2),
                     "--threads", str(other)])
        assert code in (0, 4)
        first = {p.name: p.read_bytes() for p in sorted(first_out.iterdir())}
        second = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
        if first != second:
            mismatches.append(subcommand)
        checked += len(first)
    ok = not mismatches
    acc.report(9, "determinism", ok,
               f"{checked} files byte-compared across threads for "
               f"{len(acc.runs)} experiments"
               + (f"; mismatches: {mismatches}" if mismatches else ""))
