import json

import numpy as np
import pytest
from conftest import event_rows

from chemobranch import (DriftSpec, EmpiricalMeasure, Field,
                         GridSpec, InitialFieldSpec, InitialMeasureSpec,
                         ModelParams, NoiseUniverse, RateSpec,
                         TestFunctionBank, coupling_experiment,
                         measure_convergence_experiment, simulate_hybrid,
                         vague_distance, yule_bound_check)
from chemobranch.analysis import (BumpFunction, fit_loglog_slope,
                                  wilson_interval)
from chemobranch.meanfield import solve_selfconsistent_field


def base_params(**over):
    defaults = dict(
        grid=GridSpec(1, 128, 8.0),
        sigma=0.2, D=1.0, r=0.5, alpha=0.5, lambda_bar=0.6,
        birth=RateSpec("logistic", {"c": 0.3, "slope": 2.0, "center": 0.2}),
        death=RateSpec("constant", {"c": 0.1}),
        drift=DriftSpec("chemotaxis", {"chi": 0.5, "gsat": 2.0}),
        mu0=InitialMeasureSpec("gaussian", {"center": [4.0], "sd": 0.5}),
        rho0=InitialFieldSpec("bump", {"amp": 1.0, "center": [4.0], "width": 1.0}),
        dt=0.02, T=1.0, advection="semi_lagrangian",
    )
    defaults.update(over)
    return ModelParams(**defaults)


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
