import json
from functools import partial

import numpy as np
import pytest
from conftest import event_rows, model_params

from chemobranch import (DriftSpec, EmpiricalMeasure, Field, GridSpec,
                         NoiseUniverse, RateSpec, TestFunctionBank,
                         coupling_experiment, mean_se,
                         measure_convergence_experiment, simulate_hybrid,
                         vague_distance, yule_bound_check)
from chemobranch.analysis import (BumpFunction, fit_loglog_slope,
                                  wilson_interval)
from chemobranch.meanfield import solve_selfconsistent_field


base_params = partial(model_params, advection="semi_lagrangian")


def decoupled(**over):
    return base_params(alpha=0.0, birth=RateSpec("zero"),
                       death=RateSpec("zero"), drift=DriftSpec("zero"), **over)


class TestBumpFunction:
    def test_support_and_peak(self):
        bump = BumpFunction([4.0], 1.0, 8.0)
        assert bump(np.array([[4.0]]))[0] == pytest.approx(1.0)
        assert bump(np.array([[5.5]]))[0] == 0.0
        assert bump(np.array([[4.0 + 8.0]]))[0] == pytest.approx(1.0)  # wraps

    def test_gradient_matches_finite_differences(self):
        bump = BumpFunction([3.0, 5.0], 1.3, 8.0)
        rng = np.random.default_rng(0)
        pts = rng.uniform(2.0, 4.0, size=(40, 2))
        h = 1e-6
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            fd = (bump(pts + e) - bump(pts - e)) / (2 * h)
            assert np.allclose(bump.gradient(pts)[:, ax], fd, atol=1e-6)

    def test_laplacian_matches_finite_differences(self):
        bump = BumpFunction([3.0], 1.1, 8.0)
        pts = np.linspace(2.2, 3.8, 25).reshape(-1, 1)
        h = 1e-4
        fd = (bump(pts + h) - 2 * bump(pts) + bump(pts - h)) / h ** 2
        assert np.allclose(bump.laplacian(pts), fd, atol=1e-4)

    def test_laplacian_2d(self):
        bump = BumpFunction([3.0, 3.0], 1.1, 8.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(2.3, 3.7, size=(20, 2))
        h = 1e-4
        fd = np.zeros(len(pts))
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            fd += (bump(pts + e) - 2 * bump(pts) + bump(pts - e)) / h ** 2
        assert np.allclose(bump.laplacian(pts), fd, atol=1e-3)


class TestVagueDistance:
    def make_bank(self):
        return TestFunctionBank.default_for_grid(GridSpec(1, 128, 8.0))

    def test_identity(self):
        bank = self.make_bank()
        mu = EmpiricalMeasure(np.array([[1.0], [3.0]]), np.array([1.0, 0.5]))
        assert vague_distance(mu, mu, bank) == 0.0

    def test_cap(self):
        bank = self.make_bank()
        mu = EmpiricalMeasure(np.array([[1.0]]), np.array([1000.0]))
        nu = EmpiricalMeasure(np.array([[5.0]]), np.array([1000.0]))
        d = vague_distance(mu, nu, bank)
        assert d <= float(np.sum(bank.weights)) + 1e-15

    def test_symmetry_and_triangle(self):
        bank = self.make_bank()
        rng = np.random.default_rng(2)

        def rand_measure():
            k = rng.integers(1, 6)
            return EmpiricalMeasure(rng.uniform(0, 8, size=(k, 1)),
                                    rng.uniform(0.1, 2.0, size=k))

        for _ in range(40):
            a, b, c = rand_measure(), rand_measure(), rand_measure()
            assert vague_distance(a, b, bank) == vague_distance(b, a, bank)
            assert (vague_distance(a, c, bank)
                    <= vague_distance(a, b, bank)
                    + vague_distance(b, c, bank) + 1e-12)

    def test_measure_vs_density_pairing(self):
        # a measure and its kernel representation pair nearly identically
        grid = GridSpec(1, 128, 8.0)
        bank = TestFunctionBank.default_for_grid(grid)
        density = Field(grid, np.full(grid.shape, 1.0 / grid.extent))
        rng = np.random.default_rng(3)
        atoms = EmpiricalMeasure(rng.uniform(0, 8, size=(20000, 1)),
                                 np.full(20000, 1.0 / 20000))
        assert vague_distance(atoms, density, bank) < 0.02

    def test_direct_reimplementation_cross_check(self):
        # independent slow evaluation of the weighted-series formula
        grid = GridSpec(1, 128, 8.0)
        bank = TestFunctionBank.default_for_grid(grid)
        rng = np.random.default_rng(4)
        mu = EmpiricalMeasure(rng.uniform(0, 8, size=(7, 1)),
                              rng.uniform(0.2, 1.0, size=7))
        nu = EmpiricalMeasure(rng.uniform(0, 8, size=(4, 1)),
                              rng.uniform(0.2, 1.0, size=4))
        direct = 0.0
        for k, phi in enumerate(bank.functions):
            pa = sum(w * phi(x.reshape(1, -1))[0]
                     for w, x in zip(mu.weights, mu.positions))
            pb = sum(w * phi(x.reshape(1, -1))[0]
                     for w, x in zip(nu.weights, nu.positions))
            direct += 2.0 ** -(k + 1) * min(1.0, abs(pa - pb))
        assert vague_distance(mu, nu, bank) == pytest.approx(direct, rel=1e-12)


class TestPairMeasure:
    @pytest.mark.parametrize("d", [1, 2])
    def test_one_bank_pass_equals_the_per_bump_loop(self, d):
        # the bank is evaluated in one (bumps, atoms) pass and summed along
        # the atom axis; the pairings keep the bits of one integrate per bump
        from chemobranch import integrate
        grid = GridSpec(d, 64, 8.0)
        bank = TestFunctionBank.default_for_grid(grid)
        rng = np.random.default_rng(30 + d)
        for m in (0, 1, 7, 8, 9, 130, 5000):
            mu = EmpiricalMeasure(rng.uniform(-8.0, 16.0, size=(m, d)),
                                  rng.uniform(0.1, 1.0, size=m))
            per_bump = np.array([integrate(mu, f) for f in bank.functions])
            assert bank.pair_measure(mu).tobytes() == per_bump.tobytes()


    @pytest.mark.parametrize("d", [1, 2])
    def test_bank_values_keep_the_np_mod_formula_bits(self, d):
        # the wrap runs as fmod plus a masked + L; the bump exponentiates
        # only inside the ball; both against the np.mod / gather formula
        def reference(x, centers, radii, extents):
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            half = 0.5 * extents[:, None, None]
            y = (x - centers[:, None, :] + half) % extents[:, None, None] - half
            u2 = np.sum(y * y, axis=2) / radii[:, None] ** 2
            inside = u2 < 1.0
            out = np.zeros(u2.shape)
            with np.errstate(divide="ignore", over="ignore"):
                out[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
            return out

        L = 8.0
        bank = TestFunctionBank.default_for_grid(GridSpec(d, 64, L))
        centers = np.stack([f.center for f in bank.functions])
        radii = np.array([f.radius for f in bank.functions])
        rng = np.random.default_rng(40 + d)
        edges = np.array([0.0, L, -0.0, np.nextafter(L, 0.0), -1e-300,
                          -L, 3 * L, 1e6, -1e6, 0.5 * L])
        for x in (rng.uniform(0.0, L, (1400, d)),
                  rng.uniform(-50.0, 60.0, (500, d)),
                  np.stack([edges] * d, axis=1),
                  centers, centers + radii[:, None], centers - L):
            expected = reference(x, centers, radii, np.full(len(radii), L))
            assert bank._values(x).tobytes() == expected.tobytes()


class TestHelpers:
    def test_wilson_interval(self):
        phat, lo, hi = wilson_interval(8, 10)
        assert phat == pytest.approx(0.8)
        assert 0.4 < lo < 0.8 < hi <= 1.0
        assert wilson_interval(0, 0) == (0.0, 0.0, 1.0)

    def test_wilson_interval_gives_python_floats(self):
        # a numpy scalar would be written as np.float64(...) in the report
        for hits, n in ((8, 10), (0, 6), (6, 6), (np.int64(3), 7)):
            assert [type(v) for v in wilson_interval(hits, n)] == [float] * 3
        report = coupling_experiment(base_params(dt=0.05, T=0.5), [4, 16], 3,
                                     [0.05], NoiseUniverse(9, 1))
        lines = report.to_csv_lines()
        assert any(",wilson," in line for line in lines)
        assert not any("np." in line for line in lines)

    def test_slope_fit(self):
        ns = [16, 64, 256]
        means = [1.0 / np.sqrt(n) for n in ns]
        assert fit_loglog_slope(ns, means) == pytest.approx(-0.5, abs=1e-12)


class TestYuleCheck:
    def test_equality_case_matches_yule_mean(self):
        # birth at exactly the dominating rate: mean sup live/n0 = e^{lt}
        lam = 0.5
        params = base_params(birth=RateSpec("constant", {"c": lam}),
                             death=RateSpec("zero"), lambda_bar=lam,
                             alpha=0.0, drift=DriftSpec("zero"),
                             dt=0.05, T=1.0)
        report = yule_bound_check(params, 50, 400, NoiseUniverse(1, 1))
        s = report.summary
        assert s["pass"]
        assert abs(s["mean"] - np.exp(lam)) < 3 * s["se"]

    def test_no_births_sup_is_one(self):
        params = base_params(birth=RateSpec("zero"),
                             death=RateSpec("constant", {"c": 0.3}),
                             alpha=0.0, drift=DriftSpec("zero"),
                             dt=0.05, T=1.0)
        report = yule_bound_check(params, 40, 20, NoiseUniverse(2, 1))
        values = [r.value for r in report.rows if r.stat == "raw"]
        assert all(v == 1.0 for v in values)
        assert report.summary["pass"]

    def test_strict_bound_passes_with_margin(self):
        params = base_params(alpha=0.0, drift=DriftSpec("zero"),
                             dt=0.05, T=1.0)  # birth 0.3 < lambda_bar 0.6
        report = yule_bound_check(params, 50, 60, NoiseUniverse(3, 1))
        assert report.summary["pass"]
        assert report.summary["mean"] < report.summary["bound"]


class TestMeasureConvergence:
    def test_lln_slope_for_independent_diffusions(self):
        # classical LLN oracle: no interaction, d_M should shrink ~ n^-1/2
        params = decoupled(dt=0.05, T=0.5)
        report = measure_convergence_experiment(
            params, [8, 32, 128], 30, NoiseUniverse(5, 1))
        dm = report.summary["d_M"]
        assert -0.7 <= dm["slope"] <= -0.3
        assert dm["strictly_decreasing"]
        # the verdict also needs the field error to fall strictly with n0
        assert (report.summary["pass"]
                is report.summary["field"]["strictly_decreasing"])

    def test_deterministic_across_reruns(self):
        params = base_params(dt=0.05, T=0.25)
        a = measure_convergence_experiment(params, [4, 8], 4,
                                           NoiseUniverse(6, 1))
        b = measure_convergence_experiment(params, [4, 8], 4,
                                           NoiseUniverse(6, 1))
        assert a.to_csv_lines() == b.to_csv_lines()
        assert (json.dumps(a.summary, sort_keys=True)
                == json.dumps(b.summary, sort_keys=True))

    def test_reference_density_paired_once_per_checkpoint(self, monkeypatch):
        calls = []
        original = TestFunctionBank.pair_field

        def counted(bank, field):
            calls.append(field.time)
            return original(bank, field)

        monkeypatch.setattr(TestFunctionBank, "pair_field", counted)
        params = base_params(dt=0.05, T=0.25)
        measure_convergence_experiment(params, [4, 8], 3, NoiseUniverse(7, 1))
        assert calls == list(params.times())

    def test_report_schema(self):
        # coupled config so both statistics have genuine replica variance
        params = base_params(dt=0.05, T=0.25)
        report = measure_convergence_experiment(params, [4, 8], 3,
                                                NoiseUniverse(7, 1))
        lines = report.to_csv_lines()
        assert lines[0] == "kind,n0,replica,stat,value,se,lo,hi"
        mean_rows = [r for r in report.rows if r.stat == "mean"]
        assert {(r.kind, r.n0) for r in mean_rows} == {
            ("d_M", 4), ("d_M", 8), ("field", 4), ("field", 8)}
        assert all(r.se > 0 for r in mean_rows)


class TestCouplingExperiment:
    def test_decoupled_case_S_is_exactly_zero(self):
        params = decoupled(dt=0.05, T=0.5)
        report = coupling_experiment(params, [4, 16], 6, [0.05, 0.2],
                                     NoiseUniverse(8, 1))
        assert report.summary["d_X_sup"]["max_value"] == 0.0
        for eps in (0.05, 0.2):
            assert report.summary[f"exceed_{eps:g}"]["phat"] == [0.0, 0.0]
        assert report.summary["event_mismatch"]["phat"] == [0.0, 0.0]
        assert report.summary["pass"] is True

    def test_coupled_runs_report_and_are_deterministic(self):
        params = base_params(dt=0.05, T=0.5)
        a = coupling_experiment(params, [4, 16], 5, [0.1],
                                NoiseUniverse(9, 1))
        b = coupling_experiment(params, [4, 16], 5, [0.1],
                                NoiseUniverse(9, 1))
        assert a.to_csv_lines() == b.to_csv_lines()

    def test_linear_response_of_event_mismatch(self):
        # the acceptance bands move by O(delta), so the mismatch probability
        # grows linearly in the injected field offset
        params = base_params(
            birth=RateSpec("logistic", {"c": 0.4, "slope": 4.0, "center": 0.3}),
            death=RateSpec("zero"), lambda_bar=0.4, dt=0.05, T=1.0)
        path = solve_selfconsistent_field(params, "macroscopic").rho_path
        deltas = np.array([0.05, 0.1, 0.2, 0.4])
        universe = NoiseUniverse(10, 1)

        def events(rho_path, u_r):
            traj = simulate_hybrid(params, rho_path, u_r)
            return [row[:5] for row in event_rows(traj.events)]

        hits = np.zeros(len(deltas))
        for r in range(400):
            u_r = universe.child("replica", r)
            base = events(path, u_r)
            for j, delta in enumerate(deltas):
                shifted = tuple(Field(f.grid, f.values + delta, f.time)
                                for f in path)
                hits[j] += events(shifted, u_r) != base
        probs = hits / 400
        slope, intercept = np.polyfit(deltas, probs, 1)
        resid = probs - (slope * deltas + intercept)
        r2 = 1.0 - np.sum(resid ** 2) / np.sum((probs - np.mean(probs)) ** 2)
        assert r2 > 0.9
        assert slope > 0
        assert list(probs) == sorted(probs)


def check_series(rows, kind, n0_list, replicas):
    """Per n0: the ``raw`` rows of replicas 0..R-1, then one ``mean`` row
    with replica R, the raw values' mean and SE and their 10/90% quantiles.
    Returns the raw values, (replicas, len(n0_list))."""
    expected = [(kind, n0, r, "raw" if r < replicas else "mean")
                for n0 in n0_list for r in range(replicas + 1)]
    assert [(r.kind, r.n0, r.replica, r.stat) for r in rows] == expected
    raw = []
    for i in range(len(n0_list)):
        *raws, mean = rows[i * (replicas + 1):(i + 1) * (replicas + 1)]
        values = [r.value for r in raws]
        assert all((r.se, r.lo, r.hi) == (0.0, r.value, r.value) for r in raws)
        assert (mean.value, mean.se) == mean_se(values)
        assert (mean.lo, mean.hi) == (np.quantile(values, 0.1),
                                      np.quantile(values, 0.9))
        raw.append(values)
    return np.array(raw).T


class TestReportLayout:
    """Rows and summary keys of each experiment at 2 n0 x 2 replicas,
    T = 2 dt."""

    n0_list = [4, 8]
    replicas = 2

    def params(self, **over):
        return base_params(dt=0.05, T=0.1, **over)

    def test_convergence_layout(self):
        report = measure_convergence_experiment(
            self.params(), self.n0_list, self.replicas, NoiseUniverse(11, 1))
        half = len(report.rows) // 2
        s = report.summary
        for kind, rows in (("d_M", report.rows[:half]),
                           ("field", report.rows[half:])):
            check_series(rows, kind, self.n0_list, self.replicas)
            assert s[kind]["means"] == [r.value for r in rows
                                        if r.stat == "mean"]
            assert s[kind]["ses"] == [r.se for r in rows if r.stat == "mean"]
        assert set(s) == {"n0_list", "replicas", "d_M", "field", "pass"}
        trend = {"means", "ses", "strictly_decreasing",
                 "non_increasing_within_se"}
        assert set(s["d_M"]) == trend | {"slope"}
        assert set(s["field"]) == trend

    def test_coupling_layout(self):
        eps_list = [0.001, 0.2]
        report = coupling_experiment(self.params(), self.n0_list,
                                     self.replicas, eps_list,
                                     NoiseUniverse(12, 1))
        n_series = len(self.n0_list) * (self.replicas + 1)
        sup = check_series(report.rows[:n_series], "d_X_sup", self.n0_list,
                           self.replicas)
        wilson = report.rows[n_series:]
        kinds = [f"exceed_{eps:g}" for eps in eps_list] + ["event_mismatch"]
        assert [(r.kind, r.n0, r.replica, r.stat) for r in wilson] == [
            (kind, n0, self.replicas, "wilson")
            for kind in kinds for n0 in self.n0_list]
        for eps, kind in zip(eps_list, kinds):
            rows = [r for r in wilson if r.kind == kind]
            for r, hits in zip(rows, np.sum(sup > eps, axis=0)):
                assert (r.value, r.lo, r.hi) == wilson_interval(hits,
                                                                self.replicas)
                assert r.se == np.sqrt(r.value * (1 - r.value) / self.replicas)
        s = report.summary
        assert set(s) == {"n0_list", "replicas", "epsilon_list", "d_X_sup",
                          "event_mismatch", "pass", *kinds}
        assert s["d_X_sup"] == {"means": [r.value for r in
                                          report.rows[:n_series]
                                          if r.stat == "mean"],
                                "max_value": float(np.max(sup))}
        for kind in kinds[:-1]:
            phat, lo, hi = zip(*((r.value, r.lo, r.hi) for r in wilson
                                 if r.kind == kind))
            assert s[kind] == {
                "phat": list(phat), "lo": list(lo), "hi": list(hi),
                "non_increasing_overlap": phat[1] <= phat[0] or lo[1] <= hi[0]}
        assert s["event_mismatch"] == {
            "phat": [r.value for r in wilson if r.kind == "event_mismatch"]}

    def test_yule_layout(self):
        params = self.params(alpha=0.0, drift=DriftSpec("zero"))
        report = yule_bound_check(params, 8, self.replicas,
                                  NoiseUniverse(13, 1))
        check_series(report.rows, "yule", [8], self.replicas)
        s = report.summary
        assert set(s) == {"n0", "replicas", "mean", "se", "bound", "pass",
                          "gap_in_se"}
        assert (s["mean"], s["se"]) == (report.rows[-1].value,
                                        report.rows[-1].se)
