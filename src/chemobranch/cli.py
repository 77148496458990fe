"""Experiment runner: one subcommand per model or convergence check.

Every output file embeds the config hash and master seed in its header and is
byte-identical on rerun with the same (config, seed).  Replicas run serially
in index order; ``--threads`` and ``run.threads`` are accepted for
compatibility and ignored.
Exit codes: 0 ok, 2 config error, 3 runtime error, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, macroscopic, meanfield
from .config import ExperimentConfig
from .errors import ChemobranchError, ConfigInvalid
from .field import Field, field_to_bytes, field_to_csv_lines
from .microscopic import simulate_microscopic
from .population import population_to_lines
from .randomness import NoiseUniverse

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK_FAILED = 4


def _fmt(x) -> str:
    return repr(float(x))


def _header(cfg: ExperimentConfig, seed: int, subcommand: str) -> list[str]:
    return [f"# chemobranch {subcommand}",
            f"# config_hash={cfg.hash} master_seed={seed}"]


def _write_text(path: Path, lines: list[str]):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, cfg: ExperimentConfig, seed: int, payload: dict):
    doc = {"config_hash": cfg.hash, "master_seed": seed, "summary": payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _events_csv(traj) -> list[str]:
    d = traj.params.grid.d
    cols = "time,line,word_bits,word_len,kind," + ",".join(
        f"x{i + 1}" for i in range(d))
    out = [cols]
    for ev in traj.event_log:
        coords = ",".join(repr(float(c)) for c in ev.position)
        out.append(f"{_fmt(ev.time)},{ev.idx.line},{ev.idx.word_bits},"
                   f"{ev.idx.word_len},{ev.kind},{coords}")
    return out


def _snapshot_lines(traj) -> list[str]:
    out = []
    for state in traj.states:
        out.extend(population_to_lines(state))
    return out


def _default_phis(params):
    bank = analysis.TestFunctionBank.default_for_grid(params.grid)
    return {
        "one": lambda x: np.ones(len(np.atleast_2d(x))),
        "bump_wide": bank.functions[1],
        "bump_narrow": bank.functions[5],
    }


def run_micro(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    n0 = cfg.get_count("run.n0")
    universe = NoiseUniverse(seed, params.grid.d)
    traj = simulate_microscopic(params, n0, universe)
    head = _header(cfg, seed, "micro")
    _write_text(out / "micro_events.csv", head + _events_csv(traj))
    _write_text(out / "micro_snapshots.txt", head + _snapshot_lines(traj))
    _write_text(out / "micro_live_counts.csv",
                head + ["time,live"] + [f"{_fmt(t)},{c}" for t, c in
                                        zip(traj.times, traj.live_counts())])
    (out / "micro_field_final.bin").write_bytes(field_to_bytes(traj.fields[-1]))
    _write_text(out / "micro_field_final.csv",
                head + field_to_csv_lines(traj.fields[-1]))
    return EXIT_OK


def run_macro(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    sol = macroscopic.solve_pks(params)
    head = _header(cfg, seed, "macro")
    p_final = Field(params.grid, sol.p_path.values[-1], sol.times[-1])
    rho_final = Field(params.grid, sol.rho_path.values[-1], sol.times[-1])
    (out / "macro_p_final.bin").write_bytes(field_to_bytes(p_final))
    (out / "macro_rho_final.bin").write_bytes(field_to_bytes(rho_final))
    _write_text(out / "macro_p_final.csv", head + field_to_csv_lines(p_final))
    _write_text(out / "macro_rho_final.csv", head + field_to_csv_lines(rho_final))
    _write_text(out / "macro_mass.csv",
                head + ["time,mass"] + [f"{_fmt(t)},{_fmt(m)}" for t, m in
                                        zip(sol.times, sol.mass())])
    status = EXIT_OK
    if cfg.get_bool("macro.order_check", False):
        order = macroscopic.observed_order(params)
        ok = 1.8 <= order <= 2.2
        _write_json(out / "macro_order.json", cfg, seed,
                    {"observed_order": order, "pass": ok})
        if not ok:
            status = EXIT_CHECK_FAILED
    return status


def run_hybrid(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    mode = cfg.get_str("meanfield.mode", "macroscopic")
    if mode not in meanfield.MODES:
        raise ConfigInvalid("meanfield.mode",
                            f"must be one of {', '.join(meanfield.MODES)}, "
                            f"got {mode!r}")
    universe = NoiseUniverse(seed, params.grid.d)
    scf = meanfield.solve_selfconsistent_field(
        params, mode, universe=universe,
        n_replicas=cfg.get_count("meanfield.picard_replicas", 2000),
        tol=cfg.get_float("meanfield.picard_tol", 1e-4))
    traj = meanfield.simulate_hybrid(params, scf.rho_path, universe)
    head = _header(cfg, seed, "hybrid")
    _write_text(out / "hybrid_events.csv", head + _events_csv(traj))
    _write_text(out / "hybrid_snapshots.txt", head + _snapshot_lines(traj))
    rho_final = Field(params.grid, scf.rho_path.values[-1], params.T)
    (out / "hybrid_rho_final.bin").write_bytes(field_to_bytes(rho_final))
    if scf.picard_gaps:
        _write_json(out / "hybrid_picard.json", cfg, seed,
                    {"gaps": list(scf.picard_gaps)})
    return EXIT_OK


def run_mass(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    k_reps = cfg.get_count("mass.replicas", 1000)
    universe = NoiseUniverse(seed, params.grid.d)
    scf = meanfield.solve_selfconsistent_field(params, "macroscopic")
    ens = meanfield.simulate_mass_ensemble(params, scf.rho_path,
                                           universe.child("mass"), k_reps)
    head = _header(cfg, seed, "mass")
    phis = _default_phis(params)
    lines = ["time,phi,mean,se"]
    for name, phi in phis.items():
        for j, t in enumerate(ens.times):
            mean, se = ens.pairing_stats(phi, j)
            lines.append(f"{_fmt(t)},{name},{mean!r},{se!r}")
    _write_text(out / "mass_pairings.csv", head + lines)
    if cfg.get_bool("mass.write_paths", False):
        d = params.grid.d
        cols = "replica,time," + ",".join(f"x{i + 1}" for i in range(d)) + ",M"
        rows = [cols]
        for i, rid in enumerate(ens.replica_ids):
            for j, t in enumerate(ens.times):
                coords = ",".join(repr(float(c)) for c in ens.X[i, j])
                rows.append(f"{rid},{_fmt(t)},{coords},{_fmt(ens.M[i, j])}")
        _write_text(out / "mass_paths.csv", head + rows)
    return EXIT_OK


def run_converge(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    n0_list = cfg.get_count_list("converge.n0_list")
    replicas = cfg.get_count("run.replicas")
    universe = NoiseUniverse(seed, params.grid.d)
    report = analysis.measure_convergence_experiment(
        params, n0_list, replicas, universe)
    head = _header(cfg, seed, "converge")
    _write_text(out / "converge_report.csv", head + report.to_csv_lines())
    dm = report.summary["d_M"]
    fl = report.summary["field"]
    passed = (dm["strictly_decreasing"]
              and -0.7 <= dm["slope"] <= -0.3
              and fl["strictly_decreasing"])
    report.summary["pass"] = bool(passed)
    _write_json(out / "converge_summary.json", cfg, seed, report.summary)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def run_couple(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    n0_list = cfg.get_count_list("couple.n0_list")
    eps_list = cfg.get_float_list("couple.eps", [0.05, 0.2])
    replicas = cfg.get_count("run.replicas")
    universe = NoiseUniverse(seed, params.grid.d)
    report = analysis.coupling_experiment(params, n0_list, replicas, eps_list,
                                          universe)
    head = _header(cfg, seed, "couple")
    _write_text(out / "couple_report.csv", head + report.to_csv_lines())
    passed = all(report.summary[f"exceed_{eps:g}"]["non_increasing_overlap"]
                 for eps in eps_list)
    report.summary["pass"] = bool(passed)
    _write_json(out / "couple_summary.json", cfg, seed, report.summary)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def run_yule(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    n0 = cfg.get_count("run.n0")
    replicas = cfg.get_count("run.replicas")
    universe = NoiseUniverse(seed, params.grid.d)
    report = analysis.yule_bound_check(params, n0, replicas, universe)
    head = _header(cfg, seed, "yule")
    _write_text(out / "yule_report.csv", head + report.to_csv_lines())
    _write_json(out / "yule_summary.json", cfg, seed, report.summary)
    return EXIT_OK if report.summary["pass"] else EXIT_CHECK_FAILED


_RUNNERS = {
    "micro": run_micro,
    "macro": run_macro,
    "hybrid": run_hybrid,
    "mass": run_mass,
    "converge": run_converge,
    "couple": run_couple,
    "yule": run_yule,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemobranch",
        description="Branching-diffusion chemotaxis models and their "
                    "hydrodynamic-limit checks.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        s = sub.add_parser(name)
        s.add_argument("--config", required=True, help="config file path")
        s.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides run.seed)")
        s.add_argument("--out", default=None,
                       help="output directory (overrides run.out)")
        s.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored: "
                            "replicas run serially in index order")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        seed = cfg.master_seed(args.seed)
        out = Path(args.out if args.out is not None
                   else cfg.get_str("run.out", "out"))
        out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[args.subcommand](cfg, out, seed)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChemobranchError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # the CLI contract: an exit code, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
