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
from contextlib import contextmanager
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import analysis, macroscopic, meanfield
from .config import ExperimentConfig
from .errors import ChemobranchError, ConfigInvalid
from .field import Field, field_to_bytes, field_to_csv_lines
from .microscopic import simulate_microscopic
from .population import SnapshotWriter, join_columns, mean_se
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


def _write_text(path: Path, lines: list[str], blocks=()):
    """Write ``lines``, then each block of lines as ``blocks`` yields it, so
    a file of many checkpoints or replicas is never held whole."""
    with path.open("w", encoding="utf-8") as f:
        for block in chain([lines], blocks):
            f.write("\n".join(block) + "\n")


@contextmanager
def _snapshot_observer(path: Path, head: list[str]):
    """An observer that writes each checkpoint's population to ``path``
    during the run, so a run that stops leaves the checkpoints before it."""
    with path.open("w", encoding="utf-8") as f:
        f.write("\n".join(head) + "\n")
        writer = SnapshotWriter(f)
        yield lambda k, state, rho: writer.write(state)


def _write_json(path: Path, cfg: ExperimentConfig, seed: int, payload: dict):
    doc = {"config_hash": cfg.hash, "master_seed": seed, "summary": payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_report(out: Path, cfg: ExperimentConfig, seed: int, name: str,
                  report) -> int:
    """Write ``<name>_report.csv`` and ``<name>_summary.json``; the exit
    code follows the verdict the experiment put in ``summary["pass"]``."""
    _write_text(out / f"{name}_report.csv",
                _header(cfg, seed, name) + report.to_csv_lines())
    _write_json(out / f"{name}_summary.json", cfg, seed, report.summary)
    return EXIT_OK if report.summary["pass"] else EXIT_CHECK_FAILED


def _events_csv(traj) -> list[str]:
    ev = traj.events
    cols = "time,line,word_bits,word_len,kind," + ",".join(
        f"x{i + 1}" for i in range(traj.params.grid.d))
    return [cols] + join_columns((ev.time, ev.line, ev.word_bits, ev.word_len,
                                  ev.kinds(), *ev.position.T), sep=",")


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
    head = _header(cfg, seed, "micro")
    with _snapshot_observer(out / "micro_snapshots.txt", head) as observe:
        traj = simulate_microscopic(params, n0, universe, observe=observe)
    _write_text(out / "micro_events.csv", head + _events_csv(traj))
    _write_text(out / "micro_live_counts.csv", head + ["time,live"]
                + join_columns((params.times(), traj.live), sep=","))
    (out / "micro_field_final.bin").write_bytes(field_to_bytes(traj.field))
    _write_text(out / "micro_field_final.csv",
                head + field_to_csv_lines(traj.field))
    return EXIT_OK


def run_macro(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    check = cfg.get_bool("macro.order_check", False)
    sol = macroscopic.solve_pks(params)
    head = _header(cfg, seed, "macro")
    p_final, rho_final = sol.p_path[-1], sol.rho_path[-1]
    (out / "macro_p_final.bin").write_bytes(field_to_bytes(p_final))
    (out / "macro_rho_final.bin").write_bytes(field_to_bytes(rho_final))
    _write_text(out / "macro_p_final.csv", head + field_to_csv_lines(p_final))
    _write_text(out / "macro_rho_final.csv", head + field_to_csv_lines(rho_final))
    _write_text(out / "macro_mass.csv", head + ["time,mass"]
                + join_columns((sol.times, sol.mass()), sep=","))
    if not check:
        return EXIT_OK
    summary = macroscopic.order_check(params, sol)
    _write_json(out / "macro_order.json", cfg, seed, summary)
    return EXIT_OK if summary["pass"] else EXIT_CHECK_FAILED


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
    head = _header(cfg, seed, "hybrid")
    with _snapshot_observer(out / "hybrid_snapshots.txt", head) as observe:
        traj = meanfield.simulate_hybrid(params, scf.rho_path, universe,
                                         observe=observe)
    _write_text(out / "hybrid_events.csv", head + _events_csv(traj))
    rho_final = Field(params.grid, scf.rho_path[-1].values, params.T)
    (out / "hybrid_rho_final.bin").write_bytes(field_to_bytes(rho_final))
    if scf.picard_gaps:
        _write_json(out / "hybrid_picard.json", cfg, seed,
                    {"gaps": list(scf.picard_gaps)})
    return EXIT_OK


def run_mass(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    k_reps = cfg.get_count("mass.replicas", 1000)
    write_paths = cfg.get_bool("mass.write_paths", False)
    universe = NoiseUniverse(seed, params.grid.d)
    scf = meanfield.solve_selfconsistent_field(params, "macroscopic")
    phis = _default_phis(params)
    stats = {name: [] for name in phis}  # (mean, se) per checkpoint
    times = params.times()
    if write_paths:  # whole paths, kept only to write them
        Xs = np.empty((k_reps, len(times), params.grid.d))
        Ms = np.empty((k_reps, len(times)))

    def observe(k, X, M):
        for name, phi in phis.items():
            stats[name].append(mean_se(M * np.asarray(phi(X))))
        if write_paths:
            Xs[:, k] = X
            Ms[:, k] = M

    ens = meanfield.simulate_mass_ensemble(
        params, scf.rho_path, universe.child("mass"), k_reps, observe=observe)
    head = _header(cfg, seed, "mass")
    lines = ["time,phi,mean,se"]
    for name, rows in stats.items():
        for t, (mean, se) in zip(times, rows):
            lines.append(f"{_fmt(t)},{name},{mean!r},{se!r}")
    _write_text(out / "mass_pairings.csv", head + lines)
    if write_paths:
        d = params.grid.d
        cols = "replica,time," + ",".join(f"x{i + 1}" for i in range(d)) + ",M"
        times = join_columns([times])
        _write_text(out / "mass_paths.csv", head + [cols], (
            join_columns((repeat(str(rid)), times, *Xs[i].T, Ms[i]), sep=",")
            for i, rid in enumerate(ens.replica_ids)))
    return EXIT_OK


def run_converge(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    n0_list = cfg.get_count_list("converge.n0_list")
    replicas = cfg.get_count("run.replicas")
    universe = NoiseUniverse(seed, params.grid.d)
    report = analysis.measure_convergence_experiment(
        params, n0_list, replicas, universe)
    return _write_report(out, cfg, seed, "converge", report)


def run_couple(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    n0_list = cfg.get_count_list("couple.n0_list")
    eps_list = cfg.get_float_list("couple.eps", [0.05, 0.2])
    replicas = cfg.get_count("run.replicas")
    universe = NoiseUniverse(seed, params.grid.d)
    report = analysis.coupling_experiment(params, n0_list, replicas, eps_list,
                                          universe)
    return _write_report(out, cfg, seed, "couple", report)


def run_yule(cfg, out: Path, seed: int) -> int:
    params = cfg.model_params()
    n0 = cfg.get_count("run.n0")
    replicas = cfg.get_count("run.replicas")
    universe = NoiseUniverse(seed, params.grid.d)
    report = analysis.yule_bound_check(params, n0, replicas, universe)
    return _write_report(out, cfg, seed, "yule", report)


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
