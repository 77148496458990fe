"""Cross-model checks on the 2-D torus (the rest of the suite leans on d=1)."""

import numpy as np
import pytest
from conftest import record

from chemobranch import (DriftSpec, GridSpec, InitialFieldSpec,
                         InitialMeasureSpec, ModelParams, NoiseUniverse,
                         RateSpec, measure_convergence_experiment,
                         simulate_hybrid,
                         simulate_mass_ensemble, simulate_microscopic,
                         solve_pks, solve_selfconsistent_field)


@pytest.fixture(scope="module")
def params2d():
    return ModelParams(
        grid=GridSpec(2, 64, 8.0),
        sigma=0.2, D=1.0, r=0.5, alpha=0.5, lambda_bar=0.5,
        birth=RateSpec("logistic", {"c": 0.3, "slope": 2.0, "center": 0.2}),
        death=RateSpec("constant", {"c": 0.1}),
        drift=DriftSpec("chemotaxis", {"chi": 0.5, "gsat": 2.0}),
        mu0=InitialMeasureSpec("gaussian", {"center": [4.0, 4.0], "sd": 0.5}),
        rho0=InitialFieldSpec("bump", {"amp": 1.0, "center": [4.0, 4.0],
                                       "width": 1.0}),
        dt=0.05, T=0.5, advection="semi_lagrangian")


def test_micro_and_hybrid_couple_bitwise(params2d):
    u = NoiseUniverse(7, 2)
    _, micro, fields = record(simulate_microscopic, params2d, 30, u)
    _, hybrid, _ = record(simulate_hybrid, params2d, tuple(fields), u)
    assert len(micro) == len(hybrid) == params2d.n_steps + 1
    for a, b in zip(micro, hybrid):
        a = a.restrict_to_line(1)
        assert np.array_equal(a.positions, b.positions, equal_nan=True)
        assert np.array_equal(a.word_bits, b.word_bits)


def test_pde_mass_matches_mass_particles(params2d):
    u = NoiseUniverse(7, 2)
    sol = solve_pks(params2d)
    scf = solve_selfconsistent_field(params2d, "macroscopic")
    ens = simulate_mass_ensemble(params2d, scf.rho_path, u.child("m"), 2000)
    mc = ens.M.mean()  # the final masses
    se = ens.M.std(ddof=1) / np.sqrt(2000)
    assert abs(mc - sol.mass()[-1]) < 3 * se + 2e-3


def test_measure_convergence_decreases(params2d):
    rep = measure_convergence_experiment(params2d, [8, 32], 4,
                                         NoiseUniverse(7, 2))
    means = rep.summary["d_M"]["means"]
    assert means[1] < means[0]


def test_brownian_variance_2d(params2d):
    import dataclasses
    params = dataclasses.replace(
        params2d, alpha=0.0, birth=RateSpec("zero"), death=RateSpec("zero"),
        drift=DriftSpec("zero"), dt=0.1, T=1.0,
        mu0=InitialMeasureSpec("point", {"at": [4.0, 4.0]}))
    _, states, _ = record(simulate_microscopic, params, 4000,
                          NoiseUniverse(9, 2))
    start = states[0].live_positions()
    end = states[-1].live_positions()
    disp = (end - start + 4.0) % 8.0 - 4.0
    cov = np.cov(disp.T)
    target = params.sigma ** 2 * params.T
    assert abs(cov[0, 0] - target) < 0.1 * target
    assert abs(cov[1, 1] - target) < 0.1 * target
    assert abs(cov[0, 1]) < 0.1 * target
