import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from chemobranch import ConfigInvalid, cli
from chemobranch.cli import main
from chemobranch.config import ExperimentConfig, parse_config_text

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
        ("micro", "run.n0 = 4\nkernel.width = 2.0\n", "kernel.width"),
        ("micro", "run.n0 = 4\nkernel.width = -1\n", "kernel.width"),
        ("micro", "run.n0 = 4\nmacro.scheme = bogus\n", "macro.scheme"),
        ("micro", "run.n0 = 4\nmodel.lambda_arg = foo\n", "model.lambda_arg"),
        ("micro", "run.n0 = 4\nbirth.kind = bogus\n", "birth.kind"),
        ("micro", "run.n0 = 4\nbirth.slop = 2\n", "birth.slop"),
        ("micro", "run.n0 = 4\ndrift.kind = constant\ndrift.vx = 1,2\n",
         "drift.vx"),
        ("macro", "init.mu0.sd = 0\n", "init.mu0.sd"),
        ("micro", "run.n0 = 4\ninit.rho0.width = 0\n", "init.rho0.width"),
        ("hybrid", "meanfield.mode = bogus\n", "meanfield.mode"),
        ("micro", "run.n0 = 4\ndrift.gsat = 0\n", "drift.gsat"),
        ("micro", "run.n0 = 4\nbirth.c =\n", "birth.c"),
    ])
    def test_bad_count_exits_2_naming_key(self, tmp_path, capsys, sub,
                                          extra, key):
        cfg = write_config(tmp_path, extra)
        code = main([sub, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert err.count("\n") == 1

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
        cfg = write_config(tmp_path, "run.n0 = 20\n")
        out = tmp_path / "out"
        assert main(["micro", "--config", cfg, "--out", str(out)]) == 0
        events = (out / "micro_events.csv").read_text().splitlines()
        assert events[0] == "# chemobranch micro"
        assert events[1].startswith("# config_hash=")
        assert "master_seed=42" in events[1]
        assert (out / "micro_snapshots.txt").exists()
        assert (out / "micro_field_final.bin").exists()
        counts = (out / "micro_live_counts.csv").read_text().splitlines()
        assert counts[2] == "time,live"

    def test_yule_pass_and_reports(self, tmp_path):
        cfg = write_config(tmp_path, "run.n0 = 30\nrun.replicas = 30\n")
        out = tmp_path / "out"
        assert main(["yule", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "yule_summary.json").read_text())
        assert doc["summary"]["pass"] is True
        assert doc["master_seed"] == 42
        report = (out / "yule_report.csv").read_text().splitlines()
        assert report[2] == "kind,n0,replica,stat,value,se,lo,hi"

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
        assert main(["hybrid", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "hybrid_snapshots.txt").exists()

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
