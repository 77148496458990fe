import dataclasses

import numpy as np
import pytest

from chemobranch import (CFLViolation, DriftSpec, GridSpec,
                         InitialFieldSpec, InitialMeasureSpec, ModelParams,
                         NoiseUniverse, RateSpec, order_check,
                         semigroup_step, simulate_mass_ensemble, solve_pks)
from chemobranch.macroscopic import _advect_upwind


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


class TestDegenerateDynamics:
    def test_pure_heat_flow_eigenmode(self):
        # analytic decay rate of every Fourier mode under (sigma^2/2) Lap,
        # starting from the gaussian mu0 density
        params = base_params(alpha=0.0, sigma=0.4,
                             birth=RateSpec("zero"), death=RateSpec("zero"),
                             drift=DriftSpec("zero"))
        grid = params.grid
        sol = solve_pks(params)
        start = np.fft.rfft(sol.p_path[0].values)
        end = np.fft.rfft(sol.p_path[-1].values)
        assert np.array_equal(sol.p_path[0].values, params.mu0.density(grid))
        assert np.abs(start[4]) > 0.1 * np.abs(start[0])  # modes carry mass
        decay = np.exp(-0.5 * params.sigma ** 2 * grid.rfft_k2() * params.T)
        assert np.max(np.abs(end - start * decay)) / grid.n < 1e-12

    def test_wide_initial_density_is_the_wrapped_normal(self):
        # sd = L/2: the PDE's initial density sums enough periodic images to
        # be the wrapped normal that InitialMeasureSpec.sample draws from
        grid = GridSpec(1, 128, 8.0)
        spec = InitialMeasureSpec("gaussian", {"center": [4.0], "sd": 4.0})
        x = grid.axis_coords()
        ref = sum(np.exp(-(x - 4.0 + m * 8.0) ** 2 / 32.0)
                  for m in range(-20, 21))
        ref /= np.sum(ref) * grid.cell_volume
        assert np.max(np.abs(spec.density(grid) - ref)) <= 1e-12 * np.max(ref)

    @pytest.mark.parametrize("sd", [4.0, 8.0, 24.0])
    def test_fourier_and_image_sums_agree(self, sd):
        # at and beyond L/2 the density is the wrapped normal's Fourier
        # series; an image sum long enough to converge gives the same
        grid = GridSpec(1, 128, 8.0)
        spec = InitialMeasureSpec("gaussian", {"center": [4.0], "sd": sd})
        x = grid.axis_coords()
        ref = sum(np.exp(-(x - 4.0 + m * 8.0) ** 2 / (2 * sd ** 2))
                  for m in range(-60, 61))
        ref /= np.sum(ref) * grid.cell_volume
        assert np.max(np.abs(spec.density(grid) - ref)) <= 1e-12 * np.max(ref)

    def test_huge_width_is_uniform(self):
        grid = GridSpec(2, 16, 8.0)
        field = InitialFieldSpec("bump", {"amp": 2.0, "width": 1e300,
                                          "center": [4.0]}).sample(grid)
        assert np.all(field.values == 2.0 / 64.0)

    def test_constant_rate_mass_growth_exact(self):
        # zero-mode oracle: total mass grows as exp(c T) with the exact
        # reaction step and mass-conserving diffusion
        c = 0.35
        params = base_params(birth=RateSpec("constant", {"c": c}),
                             death=RateSpec("zero"), lambda_bar=0.4,
                             drift=DriftSpec("zero"))
        sol = solve_pks(params)
        growth = sol.mass()[-1] / sol.mass()[0]
        assert growth == pytest.approx(np.exp(c * params.T), rel=1e-8)

    def test_net_rate_with_death(self):
        params = base_params(birth=RateSpec("constant", {"c": 0.3}),
                             death=RateSpec("constant", {"c": 0.2}),
                             lambda_bar=0.6, drift=DriftSpec("zero"))
        sol = solve_pks(params)
        growth = sol.mass()[-1] / sol.mass()[0]
        assert growth == pytest.approx(np.exp(0.1 * params.T), rel=1e-8)


class TestAccuracy:
    def test_strang_order_on_smooth_data(self):
        params = base_params()
        summary = order_check(params, solve_pks(params))
        assert 1.8 <= summary["observed_order"] <= 2.2
        assert summary["pass"] is True

    def test_mass_law_residual_second_order(self):
        # Richardson oracle: the per-step defect of d/dt mass = <lambda, p>
        # (midpoint quadrature) must shrink like dt^2 under halving
        def max_residual(dt):
            params = base_params(dt=dt)
            sol = solve_pks(params)
            birth_fn = params.birth.build(params.grid.extent)
            death_fn = params.death.build(params.grid.extent)
            nodes = params.grid.node_coords()
            vol = params.grid.cell_volume
            worst = 0.0
            for k in range(len(sol.times) - 1):
                p_mid = 0.5 * (sol.p_path[k].values
                               + sol.p_path[k + 1].values)
                rho_mid = 0.5 * (sol.rho_path[k].values
                                 + sol.rho_path[k + 1].values)
                lam = (birth_fn(nodes, rho_mid.ravel())
                       - death_fn(nodes, rho_mid.ravel()))
                gain = np.sum(lam * p_mid.ravel()) * vol
                resid = (sol.mass()[k + 1] - sol.mass()[k]) - dt * gain
                worst = max(worst, abs(resid))
            return worst

        r1 = max_residual(0.04)
        r2 = max_residual(0.02)
        assert r2 < r1 / 3.0
        assert r1 < 1e-5

    def test_rho_stage_is_exactly_the_field_semigroup(self):
        # the field stage must be the field module's semigroup_step applied
        # to kernel*p at the stored endpoints: replaying it bitwise proves
        # there is a single implementation, no drift between modules
        params = base_params(dt=0.05, T=0.25)
        sol = solve_pks(params)
        kernel = params.make_kernel()
        for k in range(len(sol.times) - 1):
            half = semigroup_step(
                sol.rho_path[k], kernel.convolve_density(sol.p_path[k].values),
                0.5 * params.dt, params.D, params.r, params.alpha)
            full = semigroup_step(
                half, kernel.convolve_density(sol.p_path[k + 1].values),
                0.5 * params.dt, params.D, params.r, params.alpha)
            assert np.array_equal(full.values, sol.rho_path[k + 1].values)


class TestAdvectionSchemes:
    def test_upwind_positivity_exact(self):
        grid = GridSpec(1, 128, 8.0)
        rng = np.random.default_rng(0)
        p = rng.uniform(0.0, 1.0, size=grid.shape)
        v = [0.9 * np.sin(2 * np.pi * grid.axis_coords() / grid.extent)]
        out = _advect_upwind(grid, p, v, dt=0.05)  # CFL = 0.72
        assert np.min(out) >= 0.0

    def test_upwind_conserves_mass(self):
        grid = GridSpec(1, 128, 8.0)
        rng = np.random.default_rng(1)
        p = rng.uniform(0.0, 1.0, size=grid.shape)
        v = [0.8 * np.cos(2 * np.pi * grid.axis_coords() / grid.extent)]
        out = _advect_upwind(grid, p, v, dt=0.05)
        assert np.sum(out) == pytest.approx(np.sum(p), rel=1e-13)

    def test_cfl_violation_reports_required_dt(self):
        grid = GridSpec(1, 64, 8.0)
        p = np.ones(grid.shape)
        v = [np.full(grid.shape, 3.0)]
        with pytest.raises(CFLViolation) as exc:
            _advect_upwind(grid, p, v, dt=0.1)  # CFL = 2.4
        assert exc.value.required_dt == pytest.approx(0.1 / 2.4)

    def test_upwind_solver_keeps_density_nonnegative(self):
        params = base_params(advection="upwind",
                             drift=DriftSpec("constant", {"vx": 0.8}))
        sol = solve_pks(params)
        assert min(np.min(f.values) for f in sol.p_path) >= -1e-12

    def test_semi_lagrangian_matches_upwind_in_the_small(self):
        # cross-check the two advection discretizations against each other
        params_sl = base_params(dt=0.005, T=0.25)
        params_uw = dataclasses.replace(params_sl, advection="upwind")
        a = solve_pks(params_sl).p_path[-1].values
        b = solve_pks(params_uw).p_path[-1].values
        assert np.max(np.abs(a - b)) < 0.02 * np.max(np.abs(a))

    def test_auto_picks_a_scheme_and_runs(self):
        params = base_params(advection="auto")
        sol = solve_pks(params)
        assert all(np.all(np.isfinite(f.values)) for f in sol.p_path)


def pde_pairing(sol, phi, k):
    """<phi, p> at step k by grid quadrature."""
    p = sol.p_path[k]
    phi_nodes = np.asarray(phi(p.grid.node_coords())).reshape(p.grid.shape)
    return float(np.sum(p.values * phi_nodes) * p.grid.cell_volume)


def within_3se(pde, mc, se):
    # round-off allowance keeps zero-variance (deterministic) MC values
    # comparable: their band would otherwise be exactly zero
    return abs(pde - mc) <= 3.0 * se + 1e-9 * (1.0 + abs(pde))


class TestCompareWithMonteCarlo:
    def test_point_mass_mean_position_martingale(self):
        # with zero drift and rates the mean position is conserved
        params = base_params(
            alpha=0.0, birth=RateSpec("zero"), death=RateSpec("zero"),
            drift=DriftSpec("zero"), dt=0.02, T=0.5,
            mu0=InitialMeasureSpec("point", {"at": [4.0]}))
        sol = solve_pks(params)
        ens = simulate_mass_ensemble(params, sol.rho_path, NoiseUniverse(3, 1),
                                     4000)
        phis = {"coord": lambda x: np.atleast_2d(x)[:, 0],
                "one": lambda x: np.ones(len(np.atleast_2d(x)))}
        # the ensemble and the PDE share the step index
        assert np.array_equal(ens.times, sol.times)
        for k in (0, 12, 25):  # t = 0, 0.24, 0.5
            for name, phi in phis.items():
                pde = pde_pairing(sol, phi, k)
                assert within_3se(pde, *ens.pairing_stats(phi, k))
                if name == "coord":
                    assert abs(pde - 4.0) < 0.05

    def test_constant_rate_mass_against_mc(self):
        c = 0.3
        params = base_params(birth=RateSpec("constant", {"c": c}),
                             death=RateSpec("zero"), lambda_bar=0.4,
                             dt=0.02, T=0.5)
        sol = solve_pks(params)
        from chemobranch.meanfield import rebuild_field_path
        kernel = params.make_kernel()
        path = rebuild_field_path(
            params, lambda k: kernel.convolve_density(sol.p_path[k].values))
        ens = simulate_mass_ensemble(params, path, NoiseUniverse(4, 1), 2000)

        def one(x):
            return np.ones(len(np.atleast_2d(x)))

        pde = pde_pairing(sol, one, params.n_steps)
        assert within_3se(pde, *ens.pairing_stats(one, params.n_steps))
        assert pde == pytest.approx(np.exp(c * 0.5), rel=1e-6)
