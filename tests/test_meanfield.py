import dataclasses

import numpy as np
import pytest
from conftest import record

from chemobranch import (DriftSpec, EmptyEnsemble, GridSpec,
                         InitialFieldSpec, InitialMeasureSpec, ModelParams,
                         NoiseUniverse, PicardStalled, RateSpec, empirical,
                         integrate, mean_se, semigroup_step, simulate_hybrid,
                         simulate_mass_ensemble, simulate_microscopic,
                         solve_selfconsistent_field)


def base_params(**over):
    defaults = dict(
        grid=GridSpec(1, 128, 8.0),
        sigma=0.2, D=1.0, r=0.5, alpha=0.5, lambda_bar=0.6,
        birth=RateSpec("logistic", {"c": 0.3, "slope": 2.0, "center": 0.2}),
        death=RateSpec("constant", {"c": 0.1}),
        drift=DriftSpec("chemotaxis", {"chi": 0.5, "gsat": 2.0}),
        mu0=InitialMeasureSpec("gaussian", {"center": [4.0], "sd": 0.5}),
        rho0=InitialFieldSpec("bump", {"amp": 1.0, "center": [4.0], "width": 1.0}),
        dt=0.02, T=1.0,
    )
    defaults.update(over)
    return ModelParams(**defaults)


def free_field_path(params):
    rho = params.make_rho0()
    slices = [rho]
    for _ in range(params.n_steps):
        rho = semigroup_step(rho, None, params.dt, params.D, params.r, 0.0)
        slices.append(rho)
    return tuple(slices)


def path_gap(a, b):
    """Largest |difference| of two field paths over nodes and checkpoints."""
    assert len(a) == len(b)
    return max(float(np.max(np.abs(x.values - y.values)))
               for x, y in zip(a, b))


def states_equal(a, b):
    return (np.array_equal(a.positions, b.positions, equal_nan=True)
            and np.array_equal(a.lines, b.lines)
            and np.array_equal(a.word_bits, b.word_bits)
            and np.array_equal(a.births, b.births)
            and np.array_equal(a.deaths, b.deaths))


class TestHybrid:
    def test_verbatim_field_reproduces_micro_line_bitwise(self):
        params = base_params()
        u = NoiseUniverse(7, 1)
        micro, micro_states, fields = record(simulate_microscopic, params,
                                             20, u)
        hybrid, hybrid_states, _ = record(
            simulate_hybrid, params, tuple(fields), u)
        assert len(hybrid_states) == len(micro_states) == params.n_steps + 1
        assert all(states_equal(a.restrict_to_line(1), b)
                   for a, b in zip(micro_states, hybrid_states))
        line1 = micro.events.line == 1
        assert np.all(hybrid.events.line == 1)
        for name in ("time", "word_len", "word_bits", "branch", "position"):
            assert np.array_equal(getattr(micro.events, name)[line1],
                                  getattr(hybrid.events, name))

    def test_field_path_must_hold_the_run_steps(self):
        # field k of a path is read at step k: a path of another step
        # length, or too short, even by one field, is refused
        params = base_params()
        for path in (
                free_field_path(dataclasses.replace(params, dt=params.dt / 2)),
                free_field_path(dataclasses.replace(params, T=params.T / 2)),
                free_field_path(params)[:-1]):
            with pytest.raises(ValueError):
                simulate_hybrid(params, path, NoiseUniverse(3, 1))
            with pytest.raises(ValueError):
                simulate_mass_ensemble(params, path, NoiseUniverse(3, 1), 4)

    @pytest.mark.parametrize("T", [1.0, 3.0])  # 3.0: two 64-step refills
    def test_zero_rates_single_diffusing_particle(self, T):
        # strong oracle: replay Euler-Maruyama by hand from the same stream
        params = base_params(birth=RateSpec("zero"), death=RateSpec("zero"),
                             drift=DriftSpec("zero"), T=T)
        u = NoiseUniverse(3, 1)
        path = free_field_path(params)
        traj, states, _ = record(simulate_hybrid, params, path, u)
        assert len(traj.events.time) == 0
        assert all(s.live_count == 1 for s in states)

        x = params.mu0.sample(u, [1], 1, 8.0)[0]
        inc = u.wiener_increments(([1], 0, 0), 0, params.n_steps, params.dt)[0]
        for k in range(params.n_steps):
            x = np.mod(x + params.sigma * inc[k], 8.0)
            got = states[k + 1].live_positions()[0]
            assert np.array_equal(got, x)

    def test_first_event_survival_law(self):
        # Paired thinning oracle: conditionally on the path, the discrete
        # model survives past t with probability exp(-sum lambda(x_k) dt), so
        # indicator 1{no event by t} minus that plug-in estimate has mean 0.
        params = base_params(
            birth=RateSpec("zero"),
            death=RateSpec("logistic", {"c": 0.5, "slope": 2.0, "center": 0.2}),
            lambda_bar=0.5, dt=0.02, T=1.0)
        silent = dataclasses.replace(params, birth=RateSpec("zero"),
                                     death=RateSpec("zero"))
        death_fn = params.death.build(params.grid.extent)
        u = NoiseUniverse(23, 1)
        path = free_field_path(params)
        reps = 300
        checkpoints = [25, 50]
        diffs = {k: [] for k in checkpoints}
        for rep in range(reps):
            u_r = u.child("surv", rep)
            _, free, _ = record(simulate_hybrid, params=silent,
                                rho_path=path, universe=u_r)
            real = simulate_hybrid(params, path, u_r)
            first = real.events.time.min(initial=np.inf)
            lam_seq = []
            for k in range(params.n_steps):
                pos = free[k + 1].live_positions()
                rho_val = path[k].value_at(pos)
                lam_seq.append(float(death_fn(pos, rho_val)[0]))
            cum = np.cumsum(np.array(lam_seq) * params.dt)
            for k in checkpoints:
                survived = 1.0 if first >= k * params.dt else 0.0
                diffs[k].append(survived - np.exp(-cum[k - 1]))
        for k in checkpoints:
            arr = np.asarray(diffs[k])
            se = arr.std(ddof=1) / np.sqrt(reps)
            assert abs(arr.mean()) < 3 * se + 1e-12


class TestMassParticle:
    def test_constant_rate_mass_exact(self):
        c = 0.25
        params = base_params(birth=RateSpec("constant", {"c": c}),
                             death=RateSpec("zero"), lambda_bar=0.3)
        path = free_field_path(params)
        M = simulate_mass_ensemble(params, path, NoiseUniverse(5, 1), 1).M[0]
        assert M[0] == 1.0
        assert M[-1] == pytest.approx(np.exp(c * params.T), rel=1e-12)

    def test_zero_rate_mass_is_one(self):
        params = base_params(birth=RateSpec("zero"), death=RateSpec("zero"))
        path = free_field_path(params)
        ens = simulate_mass_ensemble(params, path, NoiseUniverse(5, 1), 2)
        assert np.all(ens.M == 1.0)

    def test_mass_bounds_pathwise(self):
        params = base_params(
            birth=RateSpec("logistic", {"c": 0.3, "slope": 3.0, "center": 0.0}),
            death=RateSpec("constant", {"c": 0.2}), lambda_bar=0.6)
        path = free_field_path(params)
        ens = simulate_mass_ensemble(params, path, NoiseUniverse(9, 1), 50)
        lo = np.exp(-params.lambda_bar * ens.times)[None, :] * (1 - 1e-12)
        hi = np.exp(params.lambda_bar * ens.times)[None, :] * (1 + 1e-12)
        assert np.all(ens.M >= lo) and np.all(ens.M <= hi)

    def test_indicator_mass_matches_occupancy_oracle(self):
        # brute-force oracle: recompute exp(c * occupancy time) from the
        # stored path with trapezoid occupancy, compare means over replicas
        c = 0.25
        params = base_params(birth=RateSpec("indicator", {"c": c}),
                             death=RateSpec("zero"), lambda_bar=0.3,
                             mu0=InitialMeasureSpec("uniform"), dt=0.01)
        path = free_field_path(params)
        ens = simulate_mass_ensemble(params, path, NoiseUniverse(31, 1), 10_000)
        inside = ens.X[:, :, 0] < 4.0
        occ = np.trapezoid(inside.astype(float), dx=params.dt, axis=1)
        oracle = np.exp(c * occ)
        diff = ens.M[:, -1].mean() - oracle.mean()
        se = np.hypot(ens.M[:, -1].std(ddof=1), oracle.std(ddof=1)) / np.sqrt(10_000)
        assert abs(diff) < 3 * se + c * params.dt

    def test_replica_streams_differ(self):
        params = base_params(birth=RateSpec("zero"), death=RateSpec("zero"))
        path = free_field_path(params)
        ens = simulate_mass_ensemble(params, path, NoiseUniverse(5, 1), 2)
        assert not np.array_equal(ens.X[0], ens.X[1])


def one(x):
    return np.ones(len(np.atleast_2d(x)))


class TestEstimateMu:
    def test_single_unit_mass_replica(self):
        params = base_params(birth=RateSpec("zero"), death=RateSpec("zero"))
        path = free_field_path(params)
        ens = simulate_mass_ensemble(params, path, NoiseUniverse(5, 1), 1)
        assert ens.replica_ids == (1,)
        for j in (0, len(ens.times) - 1):
            assert ens.M[0, j] == 1.0
            assert ens.pairing_stats(one, j) == (1.0, 0.0)
            x = ens.X[0, j]
            assert ens.pairing_stats(lambda p: p[:, 0], j) == (x[0], 0.0)

    def test_total_mass_is_mean_M(self):
        params = base_params()
        scf = solve_selfconsistent_field(params, "macroscopic")
        ens = simulate_mass_ensemble(params, scf.rho_path, NoiseUniverse(2, 1), 64)
        for j in (0, len(ens.times) - 1):
            assert ens.pairing_stats(one, j)[0] == ens.M[:, j].mean()

    def test_empty_ensemble(self):
        params = base_params()
        path = free_field_path(params)
        for replicas in (0, -1):
            with pytest.raises(EmptyEnsemble):
                simulate_mass_ensemble(params, path, NoiseUniverse(5, 1),
                                       replicas)

    def test_mass_vs_hybrid_pairings_agree(self):
        # the two Monte Carlo representations of the mean measure must match
        params = base_params(dt=0.02, T=0.5)
        scf = solve_selfconsistent_field(params, "macroscopic")
        u = NoiseUniverse(77, 1)
        ens = simulate_mass_ensemble(params, scf.rho_path, u.child("mass"), 4000)
        runs = [record(simulate_hybrid, params, scf.rho_path,
                       u.child("hyb", r)) for r in range(500)]
        from chemobranch.analysis import TestFunctionBank
        bank = TestFunctionBank.default_for_grid(params.grid)
        k = params.n_steps  # compare at final time
        for phi in [bank.functions[1], bank.functions[5], one]:
            m_mean, m_se = ens.pairing_stats(phi, k)
            h_mean, h_se = mean_se([
                integrate(empirical(states[k], traj.n0), phi)
                for traj, states, _ in runs])
            assert abs(m_mean - h_mean) < 3 * np.hypot(m_se, h_se) + 1e-12


class TestSelfConsistentField:
    def test_alpha_zero_both_modes_equal_free_evolution(self):
        params = base_params(alpha=0.0)
        free = free_field_path(params)
        mac = solve_selfconsistent_field(params, "macroscopic")
        assert path_gap(mac.rho_path, free) == 0.0
        pic = solve_selfconsistent_field(params, "picard",
                                         universe=NoiseUniverse(1, 1),
                                         n_replicas=50, tol=1e-9)
        assert path_gap(pic.rho_path, free) == 0.0
        assert len(pic.picard_gaps) == 1 and pic.picard_gaps[0] == 0.0

    def test_uniform_stationary_zero_mode_ode(self):
        # lambda = 0, b = 0, uniform mu0 on a unit torus: p stays uniform and
        # mean rho solves m' = -r m + alpha exactly
        grid = GridSpec(1, 64, 1.0)
        params = base_params(
            grid=grid, birth=RateSpec("zero"), death=RateSpec("zero"),
            drift=DriftSpec("zero"), mu0=InitialMeasureSpec("uniform"),
            rho0=InitialFieldSpec("constant", {"c": 0.2}),
            kernel_width=0.05, dt=0.01, T=1.0, alpha=0.8, r=0.6)
        scf = solve_selfconsistent_field(params, "macroscopic")
        assert np.allclose(scf.p_path[-1].values, 1.0, rtol=1e-10)
        m_T = float(np.mean(scf.rho_path[-1].values))
        exact = 0.8 / 0.6 + (0.2 - 0.8 / 0.6) * np.exp(-0.6 * params.T)
        assert m_T == pytest.approx(exact, rel=1e-6)

    def test_picard_agrees_with_macroscopic(self):
        # dt small enough that the Monte Carlo band (estimated from two
        # independent ensembles) dominates the O(dt) weak bias of the paths
        params = base_params(dt=0.01, T=0.5)
        mac = solve_selfconsistent_field(params, "macroscopic")
        pic = solve_selfconsistent_field(params, "picard",
                                         universe=NoiseUniverse(13, 1),
                                         n_replicas=1500, tol=5e-4)
        pic2 = solve_selfconsistent_field(params, "picard",
                                          universe=NoiseUniverse(14, 1),
                                          n_replicas=1500, tol=5e-4)
        mc_band = path_gap(pic.rho_path, pic2.rho_path)
        gap = path_gap(pic.rho_path, mac.rho_path)
        assert gap < 3 * mc_band + 1e-4

    def test_picard_gaps_contract(self):
        params = base_params(dt=0.02, T=0.5)
        pic = solve_selfconsistent_field(params, "picard",
                                         universe=NoiseUniverse(13, 1),
                                         n_replicas=500, tol=1e-6)
        gaps = pic.picard_gaps
        assert all(gaps[i + 1] < gaps[i] for i in range(1, len(gaps) - 1))

    def test_picard_stalled_reports_gaps(self):
        params = base_params(dt=0.05, T=0.25)
        with pytest.raises(PicardStalled) as exc:
            solve_selfconsistent_field(params, "picard",
                                       universe=NoiseUniverse(13, 1),
                                       n_replicas=20, tol=1e-15, max_iters=3)
        assert len(exc.value.gaps) >= 1

    def test_weak_form_of_mean_measure(self):
        # Monte Carlo weak-equation residual for the mean measure:
        # <phi, mu_T> - <phi, mu_0> - int <B phi + lambda phi, mu_s> ds
        # has zero mean over replicas (estimated via the (X, M) ensemble)
        params = base_params(dt=0.02, T=0.5)
        scf = solve_selfconsistent_field(params, "macroscopic")
        ens = simulate_mass_ensemble(params, scf.rho_path,
                                     NoiseUniverse(37, 1), 4000)
        from chemobranch.analysis import TestFunctionBank
        phi = TestFunctionBank.default_for_grid(params.grid).functions[1]
        drift_fn = params.drift.build(params.grid.d)
        birth_fn = params.birth.build(params.grid.extent)
        death_fn = params.death.build(params.grid.extent)
        per_rep = np.zeros(len(ens.replica_ids))
        for k in range(params.n_steps):
            X = ens.X[:, k]
            M = ens.M[:, k]
            rho = scf.rho_path[k]
            grad = rho.gradient_at(X)
            rho_val = rho.value_at(X)
            bphi = (np.sum(drift_fn(X, grad) * phi.gradient(X), axis=1)
                    + 0.5 * params.sigma ** 2 * phi.laplacian(X))
            lam = birth_fn(X, rho_val) - death_fn(X, rho_val)
            per_rep += params.dt * M * (bphi + lam * phi(X))
        resid = ens.M[:, -1] * phi(ens.X[:, -1]) - ens.M[:, 0] * phi(ens.X[:, 0]) - per_rep
        se = resid.std(ddof=1) / np.sqrt(len(resid))
        assert abs(resid.mean()) < 4 * se + 1e-12
