"""What a step computes, counted: each position's phases once per step,
one departure map per Strang step, and nothing when nothing reads the
field.  The counts go through the one helper that computes phases,
``field.point_phases``, wherever a module holds it."""

import sys

import numpy as np
import pytest
from conftest import model_params, record

from chemobranch import (DriftSpec, Field, GridSpec, NoiseUniverse,
                         NonFiniteQuery, RateSpec, simulate_hybrid,
                         simulate_lines, simulate_mass_ensemble,
                         simulate_microscopic, solve_pks,
                         solve_selfconsistent_field)
from chemobranch import field, macroscopic, microscopic
from chemobranch.field import point_phases
from chemobranch.meanfield import rebuild_field_path


@pytest.fixture
def phase_points(monkeypatch):
    """The number of points of each ``point_phases`` call, in order."""
    calls = []

    def counted(grid, points):
        z = point_phases(grid, points)
        calls.append(z.shape[1])
        return z

    for name, mod in list(sys.modules.items()):
        if name.startswith("chemobranch") and \
                getattr(mod, "point_phases", None) is point_phases:
            monkeypatch.setattr(mod, "point_phases", counted)
    return calls


def test_coupled_step_computes_each_position_once(phase_points):
    # the founders once for the first gradient, then every moved cell once
    # per step, read by its rates, the deposit and the next gradient
    params = model_params(T=0.4)
    traj = simulate_microscopic(params, 200, NoiseUniverse(3, 1))
    assert traj.events.branch.any()  # daughters take their mother's
    assert len(phase_points) == params.n_steps + 1
    assert sum(phase_points) == 200 + int(traj.live[:-1].sum())


def test_hybrid_step_computes_each_position_once(phase_points):
    params = model_params(T=0.4)
    scf = solve_selfconsistent_field(params)
    phase_points.clear()
    traj = simulate_hybrid(params, scf.rho_path, NoiseUniverse(4, 1))
    assert sum(phase_points) == 1 + int(traj.live[:-1].sum())


def test_mass_step_computes_each_position_once(phase_points):
    params = model_params(T=0.4)
    rho_path = rebuild_field_path(params, lambda k: None)
    simulate_mass_ensemble(params, rho_path, NoiseUniverse(5, 1), 300)
    assert phase_points == [300] * (params.n_steps + 1)


def test_without_drift_only_the_rates_and_deposit_read_phases(phase_points):
    # no drift: nothing reads the founders' phases, and the moved cells'
    # phases serve the ringing cells' rates and the deposit
    params = model_params(T=0.4, drift=DriftSpec("zero"))
    traj = simulate_microscopic(params, 200, NoiseUniverse(6, 1))
    assert sum(phase_points) == int(traj.live[:-1].sum())


def test_nothing_reads_the_field_in_a_yule_run(phase_points):
    params = model_params(alpha=0.0, lambda_bar=0.5, T=0.4,
                          birth=RateSpec("constant", {"c": 0.5}),
                          death=RateSpec("zero"), drift=DriftSpec("zero"))
    rho_path = rebuild_field_path(params, lambda k: None)
    traj = simulate_lines(params, range(1, 101), NoiseUniverse(7, 1),
                          rho_path=rho_path)
    assert traj.live[-1] > 100
    assert phase_points == []


def test_carried_phases_leave_the_run_unchanged(monkeypatch):
    # the same run with every phase recomputed where it is read: the
    # helper is bypassed by dropping every phases argument
    params = model_params(T=0.4)
    u = NoiseUniverse(8, 1)
    traj, states, fields = record(simulate_microscopic, params, 150, u)
    for cls_attr in ("value_at", "gradient_at"):
        original = getattr(Field, cls_attr)
        monkeypatch.setattr(Field, cls_attr,
                            lambda self, points, *, phases=None, _f=original:
                            _f(self, points))
    original_deposit = field.deposit
    monkeypatch.setattr(microscopic, "deposit",
                        lambda m, k, g, *, phases=None:
                        original_deposit(m, k, g))
    again, states2, fields2 = record(simulate_microscopic, params, 150, u)
    assert np.array_equal(traj.live, again.live)
    for a, b in zip(fields, fields2):
        assert a.values.tobytes() == b.values.tobytes()
    for a, b in zip(states, states2):
        assert np.array_equal(a.positions, b.positions, equal_nan=True)


def test_one_departure_map_per_strang_step(monkeypatch, phase_points):
    maps = []
    original = macroscopic._semi_lagrangian

    def counted(grid, vel, dt):
        maps.append(dt)
        return original(grid, vel, dt)

    monkeypatch.setattr(macroscopic, "_semi_lagrangian", counted)
    params = model_params(T=0.2, advection="semi_lagrangian")
    solve_pks(params)
    assert maps == [0.5 * params.dt] * params.n_steps
    # the midpoints' and the departure points' phases, once each
    assert phase_points == [params.grid.n] * (2 * params.n_steps)


def test_nan_velocity_raises_from_the_departure_map():
    grid = GridSpec(1, 32, 8.0)
    with pytest.raises(NonFiniteQuery):
        macroscopic._semi_lagrangian(grid, [np.full(grid.shape, np.nan)],
                                     0.01)


@pytest.mark.parametrize("d", [1, 2])
def test_non_finite_query_raises_from_point_evaluation(d):
    grid = GridSpec(d, 16, 8.0)
    rho = Field(grid, np.ones(grid.shape))
    bad = np.full((2, d), 1.0)
    bad[1, -1] = np.inf
    for evaluate in (rho.value_at, rho.gradient_at,
                     lambda x: point_phases(grid, x)):
        with pytest.raises(NonFiniteQuery):
            evaluate(bad)
