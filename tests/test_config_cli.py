import contextlib
import dataclasses
import io
import json
import re
import string
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import mass_pairing, record, record_mass, row_by_row_lines
from hypothesis import given, settings, strategies as st
from test_population import read_population

from chemobranch import ConfigInvalid, NoiseUniverse, cli, meanfield
from chemobranch.cli import main
from chemobranch.config import ExperimentConfig, parse_config_text
from chemobranch.microscopic import simulate_microscopic

BASE_CONFIG = """
# shared model block
model.sigma = 0.2
model.D = 1.0
model.r = 0.5
model.alpha = 0.5
model.lambda_bar = 0.6
birth.kind = constant
birth.c = 0.3
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
run.dt = 0.05
run.T = 0.5
run.seed = 42
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG + extra)
    return str(path)


def data_lines(path):
    """Lines of a CLI output file after its two header lines."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# chemobranch ")
    assert lines[1].startswith("# config_hash=")
    return lines[2:]


def assert_snapshots_equal(path, states):
    """The file holds one ``# population`` block per state, in order: after
    its two header lines it is, byte for byte, the text the reference
    formatter ``row_by_row_lines`` gives each state, and each block parses
    back to that state exactly."""
    text = path.read_text()
    head = "".join(text.splitlines(keepends=True)[:2])
    assert text == head + "".join(
        "\n".join(row_by_row_lines(state)) + "\n" for state in states)
    lines = data_lines(path)
    starts = [i for i, line in enumerate(lines)
              if line.startswith("# population ")]
    assert starts[0] == 0
    blocks = [read_population(lines[a:b])
              for a, b in zip(starts, starts[1:] + [len(lines)])]
    assert len(blocks) == len(states)
    for back, state in zip(blocks, states):
        assert back.time == state.time and back.d == state.d
        for name in ("lines", "word_lens", "word_bits", "births", "deaths",
                     "positions"):
            assert np.array_equal(getattr(back, name), getattr(state, name),
                                  equal_nan=True), name


class TestConfigParsing:
    def test_parse_comments_and_pairs(self):
        pairs = parse_config_text("a.b = 1  # trailing\n# full comment\nc=2\n")
        assert pairs == {"a.b": "1", "c": "2"}

    def test_bad_line_names_location(self):
        with pytest.raises(ConfigInvalid) as exc:
            parse_config_text("model.sigma 0.2")
        assert "line 1" in str(exc.value)

    def test_hash_is_order_independent(self):
        a = ExperimentConfig.from_text("x = 1\ny = 2\n")
        b = ExperimentConfig.from_text("y = 2\nx = 1\n")
        assert a.hash == b.hash
        c = ExperimentConfig.from_text("x = 1\ny = 3\n")
        assert a.hash != c.hash

    def test_model_params_build(self):
        cfg = ExperimentConfig.from_text(BASE_CONFIG)
        params = cfg.model_params()
        assert params.sigma == 0.2
        assert params.birth.kind == "constant"
        assert params.grid.n == 128
        assert cfg.master_seed() == 42
        assert cfg.master_seed(7) == 7

    def test_missing_lambda_bar_names_field(self):
        text = "\n".join(line for line in BASE_CONFIG.splitlines()
                         if not line.startswith("model.lambda_bar"))
        with pytest.raises(ConfigInvalid) as exc:
            ExperimentConfig.from_text(text).model_params()
        assert exc.value.field == "model.lambda_bar"

    def test_rate_bound_violation(self):
        cfg = ExperimentConfig.from_text(
            BASE_CONFIG.replace("birth.c = 0.3", "birth.c = 0.9"))
        with pytest.raises(ConfigInvalid) as exc:
            cfg.model_params()
        assert exc.value.field == "model.lambda_bar"

    def test_grid_must_be_power_of_two(self):
        cfg = ExperimentConfig.from_text(
            BASE_CONFIG.replace("grid.n = 128", "grid.n = 100"))
        with pytest.raises(ConfigInvalid) as exc:
            cfg.model_params()
        assert exc.value.field == "grid.n"

    def test_unknown_rate_kind(self):
        cfg = ExperimentConfig.from_text(
            BASE_CONFIG.replace("birth.kind = constant", "birth.kind = spline"))
        with pytest.raises(ConfigInvalid) as exc:
            cfg.model_params()
        assert exc.value.field == "birth.kind"

    def test_point_takes_one_entry_or_one_per_axis(self):
        two_d = (BASE_CONFIG.replace("grid.d = 1", "grid.d = 2")
                 .replace("grid.n = 128", "grid.n = 32"))
        for center in ("3.0", "3.0,5.0"):
            params = ExperimentConfig.from_text(two_d.replace(
                "init.mu0.center = 4.0", f"init.mu0.center = {center}")
            ).model_params()
            point = params.mu0.point("center", 2, 0.0)
            assert list(point) == [3.0, 3.0 if center == "3.0" else 5.0]
        cfg = ExperimentConfig.from_text(two_d.replace(
            "init.rho0.center = 4.0", "init.rho0.center = 1,2,3"))
        with pytest.raises(ConfigInvalid) as exc:
            cfg.model_params()
        assert exc.value.field == "init.rho0.center"

    def test_dt_not_dividing_T(self):
        cfg = ExperimentConfig.from_text(
            BASE_CONFIG.replace("run.dt = 0.05", "run.dt = 0.07"))
        with pytest.raises(ConfigInvalid) as exc:
            cfg.model_params()
        assert exc.value.field == "run.dt"


PROPERTY_CONFIG = BASE_CONFIG + """
kernel.width = 0.5
macro.scheme = semi_lagrangian
model.lambda_arg = rho
run.population_cap = 1000
"""
PROPERTY_PAIRS = parse_config_text(PROPERTY_CONFIG)
REGISTRY_KEYS = sorted(k for k in PROPERTY_PAIRS
                       if k.startswith(("birth.", "death.", "drift.", "init."))
                       and not k.endswith(".kind"))

# no value below is a power of two written as an integer, so a mutated
# grid.n never asks for a large grid
_numbers = st.one_of(
    st.just("0"),
    st.integers(-10**6, -1).map(str),
    st.floats(-1e300, -1e-300).map(repr),
    st.sampled_from(["1e300", "1e308", "1000000000000000000"]))
_words = st.text(string.ascii_lowercase + "_", max_size=10)
_lists = st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=3).map(
    lambda xs: ",".join(map(repr, xs)))


@st.composite
def _mutated_pairs(draw):
    """The property config with one key changed, deleted or misspelt."""
    pairs = dict(PROPERTY_PAIRS)
    how = draw(st.sampled_from(["set", "delete", "misspell"]))
    if how == "misspell":
        key = draw(st.sampled_from(REGISTRY_KEYS))
        pairs[key + draw(st.text(string.ascii_lowercase, min_size=1,
                                 max_size=2))] = pairs.pop(key)
        return pairs
    key = draw(st.sampled_from(sorted(PROPERTY_PAIRS)))
    if how == "delete":
        del pairs[key]
    else:
        pairs[key] = draw(st.one_of(_numbers, _words, _lists))
    return pairs


class TestConfigProperty:
    def test_property_config_loads(self):
        assert ExperimentConfig(PROPERTY_PAIRS).model_params().kernel_width == 0.5

    # a huge grid.L squares kernel offsets to inf; their exp is the right 0
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(_mutated_pairs())
    def test_mutated_config_loads_or_names_its_key(self, pairs):
        try:
            ExperimentConfig(pairs).model_params()
        except ConfigInvalid as exc:
            assert exc.field in set(pairs) | set(PROPERTY_PAIRS)


class TestKnownKeys:
    def test_keys_are_the_keys_the_subcommands_read(self):
        # every getter call site reads a key of KEYS, and every key of KEYS
        # but the ignored run.threads is read somewhere
        import chemobranch
        from chemobranch.config import _KEY_OF_FIELD, KEYS, REGISTRY_SECTIONS
        text = "".join(p.read_text(encoding="utf-8") for p in
                       Path(chemobranch.__file__).parent.glob("*.py"))
        read = set(re.findall(r"\.get_\w+\(\s*f?\"([^\"]+)\"", text))
        sections = {key for key in read if "{" in key}
        assert sections == {"{section}.kind"}
        read -= sections
        read |= {key for key in _KEY_OF_FIELD.values()
                 if not key.startswith(tuple(s + "." for s in REGISTRY_SECTIONS))}
        assert read <= KEYS
        assert KEYS - read == {"run.threads"}

    def test_run_threads_is_accepted(self):
        pairs = dict(PROPERTY_PAIRS, **{"run.threads": "8"})
        ExperimentConfig(pairs).model_params()


class TestCliRuns:
    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace("model.lambda_bar = 0.6", ""))
        code = main(["yule", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "model.lambda_bar" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("model.sigma = 0.2", "model.sigma = nan", "model.sigma"),
        ("run.T = 0.5", "run.T = inf", "run.T"),
        ("init.mu0.sd = 0.5", "init.mu0.sd = -inf", "init.mu0.sd"),
        ("birth.c = 0.3", "birth.c = -0.3", "birth.c"),
        ("death.c = 0.1", "death.c = -0.1", "death.c"),
    ])
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, old, new,
                                          key):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG.replace(old, new))
        code = main(["micro", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sub, extra, key", [
        ("micro", "run.n0 = 0\n", "run.n0"),
        ("yule", "run.n0 = 10\nrun.replicas = 0\n", "run.replicas"),
        ("converge", "run.replicas = 2\nconverge.n0_list = 4,0\n",
         "converge.n0_list"),
        ("couple", "run.replicas = 2\ncouple.n0_list = 0,4\n",
         "couple.n0_list"),
        ("converge", "run.replicas = 2\nconverge.n0_list = ,\n",
         "converge.n0_list"),
        ("mass", "mass.replicas = -5\n", "mass.replicas"),
        ("hybrid", "meanfield.mode = picard\nmeanfield.picard_replicas = 0\n",
         "meanfield.picard_replicas"),
        ("micro", "run.n0 = 4\nrun.population_cap = 0\n",
         "run.population_cap"),
        # lambda_bar * T = 50000 clock points per cell: over the limit
        ("micro", "run.n0 = 4\nmodel.lambda_bar = 100000\n",
         "model.lambda_bar"),
        # the limit binds the subcommands that draw no clock points too
        ("macro", "model.lambda_bar = 100000\n", "model.lambda_bar"),
        ("mass", "mass.replicas = 5\nmodel.lambda_bar = 100000\n",
         "model.lambda_bar"),
        ("micro", "run.n0 = 4\nkernel.width = 2.0\n", "kernel.width"),
        ("micro", "run.n0 = 4\nkernel.width = -1\n", "kernel.width"),
        # 1.5 grid cells: below the spectral kernel's 2 dx
        ("micro", "run.n0 = 4\nkernel.width = 0.09375\n", "kernel.width"),
        ("micro", "run.n0 = 4\nmacro.scheme = bogus\n", "macro.scheme"),
        ("micro", "run.n0 = 4\nmodel.lambda_arg = foo\n", "model.lambda_arg"),
        ("micro", "run.n0 = 4\nbirth.kind = bogus\n", "birth.kind"),
        ("micro", "run.n0 = 4\nbirth.slop = 2\n", "birth.slop"),
        ("micro", "run.n0 = 4\ndrift.kind = constant\ndrift.vx = 1,2\n",
         "drift.vx"),
        ("macro", "init.mu0.sd = 0\n", "init.mu0.sd"),
        ("micro", "run.n0 = 4\ninit.rho0.width = 0\n", "init.rho0.width"),
        # a cosine mode of 1.5 would run as mode 1
        ("micro", "run.n0 = 4\ninit.rho0.kind = cosine\n"
                  "init.rho0.mode = 1.5\n", "init.rho0.mode"),
        ("hybrid", "meanfield.mode = bogus\n", "meanfield.mode"),
        ("micro", "run.n0 = 4\ndrift.gsat = 0\n", "drift.gsat"),
        ("micro", "run.n0 = 4\nbirth.c =\n", "birth.c"),
        ("micro", "run.n0 = 4\ninit.mu0.center = 1,2\n", "init.mu0.center"),
        ("micro", "run.n0 = 4\ninit.mu0.kind = point\ninit.mu0.at = 1,2\n",
         "init.mu0.at"),
        ("micro", "run.n0 = 4\ninit.rho0.center = 1,2,3\n",
         "init.rho0.center"),
        ("micro", "run.n0 = 4\nbirth.kind = logistic\nbirth.center = 1,2\n",
         "birth.center"),
        ("converge", "run.replicas = 2\nconverge.n0_list = 16\n",
         "converge.n0_list"),
        ("converge", "run.replicas = 2\nconverge.n0_list = 8,8\n",
         "converge.n0_list"),
        ("couple", "run.replicas = 2\ncouple.n0_list = 8\n", "couple.n0_list"),
        ("couple", "run.replicas = 2\ncouple.n0_list = 4,8\ncouple.eps = ,\n",
         "couple.eps"),
        # a trend reads the means in list order
        ("converge", "run.replicas = 2\nconverge.n0_list = 256,16\n",
         "converge.n0_list"),
        ("couple", "run.replicas = 2\ncouple.n0_list = 16,16,64\n",
         "couple.n0_list"),
        # every replica exceeds a threshold of 0; two thresholds with one
        # label would share a summary key
        ("couple", "run.replicas = 2\ncouple.n0_list = 4,8\n"
                   "couple.eps = 0.05,0\n", "couple.eps"),
        ("couple", "run.replicas = 2\ncouple.n0_list = 4,8\n"
                   "couple.eps = 0.05,0.0500000001\n", "couple.eps"),
        # a gap is at least 0, so a tolerance of 0 or below is never met
        ("hybrid", "meanfield.mode = picard\nmeanfield.picard_tol = 0\n",
         "meanfield.picard_tol"),
        ("hybrid", "meanfield.picard_tol = -1e-4\n", "meanfield.picard_tol"),
        ("mass", "mass.replicas = 5\nmass.write_paths = maybe\n",
         "mass.write_paths"),
        ("macro", "macro.order_check = sure\n", "macro.order_check"),
        ("micro", "run.n0 = 4\nmodel.sigmaa = 3\n", "model.sigmaa"),
        ("micro", "run.n0 = 4\nrun.tt = 3\n", "run.tt"),
        ("macro", "init.kind = bump\n", "init.kind"),
    ])
    def test_bad_count_exits_2_naming_key(self, tmp_path, capsys, sub,
                                          extra, key):
        # a bad value fails before the run starts: nothing lands in --out
        cfg = write_config(tmp_path, extra)
        out = tmp_path / "out"
        code = main([sub, "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_unexpected_exception_exits_3_without_traceback(
            self, tmp_path, capsys, monkeypatch):
        def broken(cfg, out, seed):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._RUNNERS, "micro", broken)
        cfg = write_config(tmp_path, "run.n0 = 4\n")
        code = main(["micro", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("name", ["missing.cfg", "a_directory"])
    def test_unreadable_config_exits_2_naming_path(self, tmp_path, capsys,
                                                   name):
        path = tmp_path / name
        if name == "a_directory":
            path.mkdir()
        code = main(["yule", "--config", str(path), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_micro_outputs_and_headers(self, tmp_path):
        cfg = write_config(tmp_path, "run.n0 = 40\n")
        out = tmp_path / "out"
        assert main(["micro", "--config", cfg, "--out", str(out)]) == 0
        events = (out / "micro_events.csv").read_text().splitlines()
        assert events[0] == "# chemobranch micro"
        assert events[1].startswith("# config_hash=")
        assert "master_seed=42" in events[1]
        assert (out / "micro_field_final.bin").exists()
        counts = (out / "micro_live_counts.csv").read_text().splitlines()
        assert counts[2] == "time,live"
        params = ExperimentConfig.from_file(cfg).model_params()
        _, states, _ = record(simulate_microscopic, params, 40,
                              NoiseUniverse(42, 1))
        assert len(states) == params.n_steps + 1
        # the run has daughters and dead rows for the file to carry
        final = states[-1]
        assert final.word_lens.any() and not final.live_mask.all()
        assert_snapshots_equal(out / "micro_snapshots.txt", states)

    def test_micro_explosion_exits_3_leaving_partial_snapshots(
            self, tmp_path, capsys):
        # the run stops past run.population_cap: one runtime error line, and
        # --out holds the snapshot blocks written before the stop
        cfg = write_config(tmp_path, "run.n0 = 40\nrun.population_cap = 40\n")
        out = tmp_path / "out"
        code = main(["micro", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["micro_snapshots.txt"]
        # below the cap the run is the uncapped one: the file holds its
        # first checkpoints
        params = ExperimentConfig.from_file(cfg).model_params()
        _, states, _ = record(
            simulate_microscopic,
            dataclasses.replace(params, population_cap=10 ** 6), 40,
            NoiseUniverse(42, 1))
        blocks = sum(line.startswith("# population ") for line in
                     data_lines(out / "micro_snapshots.txt"))
        assert 0 < blocks < len(states)
        assert_snapshots_equal(out / "micro_snapshots.txt", states[:blocks])

    def test_yule_pass_and_reports(self, tmp_path):
        cfg = write_config(tmp_path, "run.n0 = 30\nrun.replicas = 30\n")
        out = tmp_path / "out"
        assert main(["yule", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "yule_summary.json").read_text())
        assert doc["summary"]["pass"] is True
        assert doc["master_seed"] == 42
        report = (out / "yule_report.csv").read_text().splitlines()
        assert report[2] == "kind,n0,replica,stat,value,se,lo,hi"

    def test_yule_single_replica_summary_is_strict_json(self, tmp_path):
        # one replica has SE 0, so the gap in SE units has no value
        cfg = write_config(tmp_path, "run.n0 = 10\nrun.replicas = 1\n")
        out = tmp_path / "out"
        assert main(["yule", "--config", cfg, "--out", str(out)]) in (0, 4)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads((out / "yule_summary.json").read_text(),
                         parse_constant=reject)
        assert doc["summary"]["se"] == 0.0
        assert doc["summary"]["gap_in_se"] is None

    def test_byte_identical_reruns_and_thread_independence(self, tmp_path):
        cfg = write_config(tmp_path, "run.n0 = 10\nrun.replicas = 6\n")
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert main(["yule", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.iterdir())})
        assert outs[0] == outs[1] == outs[2]

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "run.n0 = 10\nrun.replicas = 6\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["yule", "--config", cfg, "--out", str(out_a)])
        main(["yule", "--config", cfg, "--out", str(out_b), "--seed", "43"])
        a = (out_a / "yule_report.csv").read_bytes()
        b = (out_b / "yule_report.csv").read_bytes()
        assert a != b

    def test_macro_order_check_fails_with_upwind(self, tmp_path):
        # first-order upwind cannot reach Strang order two: exit code 4
        cfg = write_config(tmp_path, "macro.scheme = upwind\n"
                                     "macro.order_check = true\n")
        out = tmp_path / "out"
        assert main(["macro", "--config", cfg, "--out", str(out)]) == 4
        doc = json.loads((out / "macro_order.json").read_text())
        assert doc["summary"]["pass"] is False

    def test_macro_order_check_without_errors_writes_a_null_order(
            self, tmp_path, capsys):
        # a flat, sourceless problem: every dt gives the same solution, so
        # both Strang errors are 0 and the triplet shows no order
        flat = re.sub(r"(?m)^(birth|death|drift|init)\..*\n", "", BASE_CONFIG)
        path = tmp_path / "flat.cfg"
        path.write_text(flat + "birth.kind = zero\ndeath.kind = zero\n"
                               "drift.kind = zero\ninit.mu0.kind = uniform\n"
                               "init.rho0.kind = constant\ninit.rho0.c = 1.0\n"
                               "macro.order_check = true\n")
        out = tmp_path / "out"
        assert main(["macro", "--config", str(path), "--out", str(out)]) == 4

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads((out / "macro_order.json").read_text(),
                         parse_constant=reject)
        assert doc["summary"] == {"observed_order": None, "pass": False}
        assert capsys.readouterr().err == ""

    def test_macro_order_check_passes_semi_lagrangian(self, tmp_path):
        cfg = write_config(tmp_path, "macro.scheme = semi_lagrangian\n"
                                     "macro.order_check = true\n")
        out = tmp_path / "out"
        assert main(["macro", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "macro_order.json").read_text())
        assert 1.8 <= doc["summary"]["observed_order"] <= 2.2

    def test_mass_and_hybrid_subcommands(self, tmp_path):
        cfg = write_config(tmp_path, "mass.replicas = 50\n")
        out = tmp_path / "out"
        assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
        pairings = (out / "mass_pairings.csv").read_text().splitlines()
        assert pairings[2] == "time,phi,mean,se"
        # phi-major rows: each phi's pairing at every checkpoint in turn
        params = ExperimentConfig.from_file(cfg).model_params()
        scf = meanfield.solve_selfconsistent_field(params)
        _, X, M = record_mass(params, scf.rho_path,
                              NoiseUniverse(42, 1).child("mass"), 50)
        assert pairings[3:] == [
            f"{float(t)!r},{name},{mean!r},{se!r}"
            for name, phi in cli._default_phis(params).items()
            for k, t in enumerate(params.times())
            for mean, se in [mass_pairing(X, M, phi, k)]]
        assert main(["hybrid", "--config", cfg, "--out", str(out)]) == 0
        universe = NoiseUniverse(42, 1)
        scf = meanfield.solve_selfconsistent_field(params, universe=universe)
        _, states, _ = record(meanfield.simulate_hybrid, params,
                              scf.rho_path, universe)
        assert len(states) == params.n_steps + 1
        assert_snapshots_equal(out / "hybrid_snapshots.txt", states)

    def test_mass_paths_are_the_ensemble(self, tmp_path):
        cfg = write_config(tmp_path, "mass.replicas = 3\n"
                                     "mass.write_paths = true\n")
        out = tmp_path / "out"
        assert main(["mass", "--config", cfg, "--out", str(out)]) == 0
        lines = data_lines(out / "mass_paths.csv")
        assert lines[0] == "replica,time,x1,M"
        params = ExperimentConfig.from_file(cfg).model_params()
        scf = meanfield.solve_selfconsistent_field(params)
        ens, X, M = record_mass(
            params, scf.rho_path, NoiseUniverse(42, 1).child("mass"), 3)
        times = params.times()
        # replica-major: replica k's rows are the k-th run of len(times)
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]])
        rows = rows.reshape(len(ens.replica_ids), len(times), 4)
        assert np.array_equal(rows[:, :, 0],
                              np.repeat([ens.replica_ids], len(times),
                                        axis=0).T)
        assert np.array_equal(rows[:, :, 1],
                              np.tile(times, (len(ens.replica_ids), 1)))
        assert np.array_equal(rows[:, :, 2:3], X)
        assert np.array_equal(rows[:, :, 3], M)

    @pytest.mark.parametrize("key", ["init.rho0.width", "init.mu0.sd"])
    @pytest.mark.parametrize("value", ["1e6", "1e300"])
    def test_wide_initial_data_run_fast(self, tmp_path, key, value):
        # the wrapped normal sums its Fourier series once it is wider than
        # L/2, a few terms however wide; the image sum took 15 s at 1e6
        cfg = write_config(tmp_path, f"run.n0 = 4\n{key} = {value}\n")
        start = time.perf_counter()
        for sub in ("macro", "micro"):
            assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        assert time.perf_counter() - start < 1.0

    def test_converge_and_couple_small(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "run.replicas = 4\nconverge.n0_list = 4,8\n"
            "couple.n0_list = 4,8\ncouple.eps = 0.1,0.3\n"
            "macro.scheme = semi_lagrangian\n")
        out = tmp_path / "out"
        code = main(["couple", "--config", cfg, "--out", str(out)])
        assert code in (0, 4)
        assert (out / "couple_report.csv").exists()
        doc = json.loads((out / "couple_summary.json").read_text())
        assert "exceed_0.1" in doc["summary"]


# keys that size the work or memory of a run (steps, grid, cells, replicas):
# the run-time property gives them only invalid values or a few small
# positive ones, and never a small run.dt.  model.lambda_bar is drawn freely:
# its clock work is bounded at load
SIZE_KEYS = {"run.T", "run.dt", "grid.n", "run.n0", "run.population_cap",
             "run.replicas", "mass.replicas", "meanfield.picard_replicas",
             "converge.n0_list", "couple.n0_list"}
RUN_CONFIG = PROPERTY_CONFIG.replace("run.T = 0.5", "run.T = 0.1") + """
run.n0 = 4
run.replicas = 2
mass.replicas = 4
meanfield.picard_replicas = 4
converge.n0_list = 2,4
couple.n0_list = 2,4
"""
RUN_PAIRS = parse_config_text(RUN_CONFIG)
_small_numbers = st.one_of(
    st.integers(-10**6, 0).map(str), st.floats(-1e300, 0.0).map(repr),
    st.sampled_from(["1", "2", "0.5", "1,2"]))


@st.composite
def _mutated_run(draw):
    """A subcommand and the tiny run config with one key changed, deleted or
    misspelt."""
    pairs = dict(RUN_PAIRS)
    key = draw(st.sampled_from(sorted(RUN_PAIRS)))
    how = draw(st.sampled_from(["set", "delete", "misspell"]))
    if how == "misspell":
        pairs[key + draw(st.text(string.ascii_lowercase, min_size=1,
                                 max_size=2))] = pairs.pop(key)
    elif how == "delete":
        del pairs[key]
    elif key in SIZE_KEYS:
        pairs[key] = draw(st.one_of(_small_numbers, _words))
    else:
        pairs[key] = draw(st.one_of(_numbers, _words, _lists))
    return draw(st.sampled_from(sorted(cli._RUNNERS))), pairs


class TestRunProperty:
    def test_run_config_runs_every_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG)
        for sub in sorted(cli._RUNNERS):
            code = main([sub, "--config", str(cfg), "--out", str(tmp_path / sub)])
            assert code in (0, 4), sub

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_summary_is_a_runtime_error(self, tmp_path, capsys):
        # at alpha = 1e300 the field-gradient error overflows to inf, which
        # the JSON summary cannot hold: exit 3 naming the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CONFIG.replace("model.alpha = 0.5",
                                          "model.alpha = 1e300"))
        code = main(["converge", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("runtime error: converge_summary.json: "), err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(_mutated_run())
    def test_mutated_run_keeps_the_exit_contract(self, case):
        # T = 2 dt and n0 <= 4: every input ends with an exit code of the
        # contract, never a traceback, and an exit 3 is a runtime error
        sub, pairs = case
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
            with contextlib.redirect_stderr(err):
                code = main([sub, "--config", str(cfg), "--out",
                             str(Path(tmp) / "out")])
        text = err.getvalue()
        assert code in (0, 2, 3, 4), text
        assert "Traceback" not in text and "internal error:" not in text, text
        if code == 3:
            assert text.startswith("runtime error: "), text
