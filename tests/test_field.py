import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from conftest import record

from chemobranch import (ConfigInvalid, EmpiricalMeasure, Field, GridMismatch,
                         GridSpec, Kernel, NonFiniteQuery, check_path,
                         deposit, semigroup_step)
from chemobranch.field import (field_to_bytes, field_to_csv_lines, grid_irfft,
                               grid_rfft, point_phases)


@pytest.fixture
def grid1():
    return GridSpec(1, 128, 8.0)


@pytest.fixture
def grid2():
    return GridSpec(2, 64, 8.0)


def reference_periodized_gaussian(offset, width, extent, images=3):
    """Independent slow implementation of the mollifier profile."""
    acc = 0.0
    for m in range(-images, images + 1):
        acc += np.exp(-((offset + m * extent) ** 2) / (2 * width ** 2))
    return acc / np.sqrt(2 * np.pi * width ** 2)


def dense_deposit(positions, weights, width, grid):
    """Image-sum deposit: sum_a w_a prod_axes kernel(node - x_a)."""
    L = grid.extent
    offsets = grid.axis_coords()[None, :] - positions.T[:, :, None]
    profiles = reference_periodized_gaussian((offsets + L / 2) % L - L / 2,
                                             width, L)
    if grid.d == 1:
        return np.einsum("a,ai->i", weights, profiles[0])
    return np.einsum("a,ai,aj->ij", weights, profiles[0], profiles[1])


def dense_interpolant(values, grid, points):
    """Value and gradient of the trigonometric interpolant from the full
    fftn spectrum and one e^{ikx} per point, axis and mode."""
    c = np.fft.fftn(values) / values.size
    k = grid.axis_wavenumbers()
    E = [np.exp(1j * np.outer(points[:, ax], k)) for ax in range(grid.d)]
    spectra = [c] + [1j * k.reshape([-1 if b == ax else 1
                                     for b in range(grid.d)]) * c
                     for ax in range(grid.d)]
    if grid.d == 1:
        out = [E[0] @ s for s in spectra]
    else:
        out = [np.einsum("pa,ab,pb->p", E[0], s, E[1]) for s in spectra]
    return out[0].real, np.stack([g.real for g in out[1:]], axis=1)


class TestKernel:
    def test_unit_mass_on_torus(self, grid1, grid2):
        for grid in (grid1, grid2):
            # a unit-mass delta at a node keeps unit mass once mollified:
            # grid quadrature, spectrally exact for this profile
            delta = np.zeros(grid.shape)
            delta[(3,) * grid.d] = 1.0 / grid.cell_volume
            smooth = Kernel(grid).convolve_density(delta)
            assert abs(np.sum(smooth) * grid.cell_volume - 1.0) < 1e-10

    def test_profile_matches_reference(self, grid1):
        # single-atom deposits at shifted positions, inside and outside
        # [0, L), are the profile at (node - position)
        kern = Kernel(grid1, width=0.3)
        for x in np.linspace(-12.0, 12.0, 57):
            src = deposit(EmpiricalMeasure(np.array([[x]]), np.ones(1)), kern,
                          grid1)
            offsets = (grid1.axis_coords() - x + 4.0) % 8.0 - 4.0
            ref = reference_periodized_gaussian(offsets, 0.3, 8.0)
            assert np.max(np.abs(src - ref)) <= 1e-13 * np.max(ref)

    def test_width_bounds(self, grid1):
        with pytest.raises(ValueError):
            Kernel(grid1, width=2.0)  # wider than L/8
        with pytest.raises(ConfigInvalid) as exc:
            Kernel(grid1, width=1.5 * grid1.dx)  # below 2 dx
        assert exc.value.field == "width"
        assert Kernel(grid1, width=2 * grid1.dx).width == 2 * grid1.dx
        assert Kernel(grid1, width=grid1.extent / 8).width == grid1.extent / 8


# (relative bound, width in grid cells or None for L/8): the spectral kernel
# drops modes beyond the grid's, exp(-w^2 k_Nyq^2 / 2) = 2.7e-9 at 2 dx
DENSE_CASES = [(1e-8, 2.0), (1e-13, 4.0), (1e-13, None)]


class TestAgainstDenseReferences:
    @pytest.mark.parametrize("d, n", [(1, 128), (2, 64)])
    @pytest.mark.parametrize("bound, cells", DENSE_CASES)
    def test_deposit_and_point_evaluation(self, d, n, bound, cells):
        grid = GridSpec(d, n, 8.0)
        width = grid.extent / 8 if cells is None else cells * grid.dx
        kern = Kernel(grid, width)
        rng = np.random.default_rng(11)
        # positions and queries on [-L, 2L): wrapping is part of the contract
        pos = rng.uniform(-8.0, 16.0, size=(60, d))
        w = rng.uniform(0.1, 1.0, size=60)
        ref = dense_deposit(pos, w, width, grid)
        src = deposit(EmpiricalMeasure(pos, w), kern, grid)
        assert np.max(np.abs(src - ref)) <= bound * np.max(np.abs(ref))
        pts = rng.uniform(-8.0, 16.0, size=(200, d))
        val, grad = dense_interpolant(ref, grid, pts)
        rho = Field(grid, ref)
        assert (np.max(np.abs(rho.value_at(pts) - val))
                <= bound * np.max(np.abs(val)))
        assert (np.max(np.abs(rho.gradient_at(pts) - grad))
                <= bound * np.max(np.abs(grad)))


class TestDeposit:
    def test_single_atom_profile(self, grid1):
        kern = Kernel(grid1, width=0.25)
        n0 = 5
        mu = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0 / n0]))
        src = deposit(mu, kern, grid1)
        ref = np.array([reference_periodized_gaussian(x, 0.25, 8.0)
                        for x in ((grid1.axis_coords() + 4.0) % 8.0) - 4.0])
        assert np.allclose(src, ref / n0, rtol=1e-12)

    def test_two_atoms_same_position_linearity(self, grid2):
        kern = Kernel(grid2, width=0.4)
        pos = np.array([[1.5, 3.0], [1.5, 3.0]])
        mu2 = EmpiricalMeasure(pos, np.array([0.25, 0.25]))
        mu1 = EmpiricalMeasure(pos[:1], np.array([0.25]))
        assert np.allclose(deposit(mu2, kern, grid2),
                           2.0 * deposit(mu1, kern, grid2), rtol=1e-14)

    def test_total_integral_matches_mass(self, grid1, grid2):
        # quadrature oracle: cell_volume * sum(nodes) is spectrally exact here
        rng = np.random.default_rng(3)
        for grid in (grid1, grid2):
            kern = Kernel(grid)
            pos = rng.uniform(0, grid.extent, size=(40, grid.d))
            w = rng.uniform(0.1, 1.0, size=40)
            mu = EmpiricalMeasure(pos, w)
            src = deposit(mu, kern, grid)
            total = np.sum(src) * grid.cell_volume
            assert abs(total - np.sum(w)) < 1e-8 * np.sum(w)

    def test_empty_measure(self, grid1):
        mu = EmpiricalMeasure(np.zeros((0, 1)), np.zeros(0))
        assert np.all(deposit(mu, Kernel(grid1), grid1) == 0.0)

    def test_grid_mismatch(self, grid1, grid2):
        mu = EmpiricalMeasure(np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(GridMismatch):
            deposit(mu, Kernel(grid2), grid1)


BLAS_PROBE = """
import hashlib
import numpy as np
from chemobranch import EmpiricalMeasure, Field, GridSpec, Kernel, deposit
digest = hashlib.sha256()
for d, n in ((1, 128), (2, 32)):
    grid = GridSpec(d, n, 8.0)
    pos = np.random.default_rng(d).uniform(0.0, 8.0, size=(5000, d))
    mu = EmpiricalMeasure(pos, np.full(5000, 2e-4))
    flat = Kernel(grid)
    flat.hat = np.ones_like(flat.hat)  # passes every mode of the atom sum
    rho = Field(grid, deposit(mu, Kernel(grid), grid))
    for arr in (rho.values, deposit(mu, flat, grid), rho.value_at(pos),
                rho.gradient_at(pos)):
        digest.update(arr.tobytes())
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_blas_threads():
    # the atom and mode reductions use einsum, never a BLAS product whose
    # summation order can follow the thread count
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestSemigroupStep:
    def test_constant_field_pure_decay(self, grid1):
        c, r, dt = 2.5, 0.7, 0.05
        rho = Field(grid1, np.full(grid1.shape, c))
        out = semigroup_step(rho, None, dt, D=1.0, r=r, alpha=0.0)
        assert np.allclose(out.values, c * np.exp(-r * dt), rtol=1e-14, atol=0)
        assert out.time == pytest.approx(dt)

    def test_single_mode_eigenfunction(self, grid1):
        # mode m decays by exp(-(D k^2 + r) dt) with k = 2 pi m / L
        D, r, dt, m = 0.8, 0.3, 0.04, 3
        x = grid1.axis_coords()
        rho = Field(grid1, np.cos(2 * np.pi * m * x / grid1.extent))
        out = semigroup_step(rho, None, dt, D, r, 0.0)
        k2 = (2 * np.pi * m / grid1.extent) ** 2
        expected = np.exp(-(D * k2 + r) * dt) * rho.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_constant_source_steady_state(self, grid1):
        # zero-mode ODE oracle: m' = -r m + alpha s has fixed point alpha*s/r
        D, r, alpha, s, dt = 1.0, 0.5, 0.8, 1.3, 0.05
        rho = Field(grid1, np.zeros(grid1.shape))
        src = np.full(grid1.shape, s)
        for _ in range(int(40 / r / dt)):
            rho = semigroup_step(rho, src, dt, D, r, alpha)
        assert np.allclose(rho.values, alpha * s / r, rtol=1e-6)

    def test_semigroup_property_exact(self, grid2):
        rng = np.random.default_rng(1)
        rho = Field(grid2, rng.normal(size=grid2.shape))
        src = rng.normal(size=grid2.shape)
        one = semigroup_step(rho, src, 0.08, 1.2, 0.4, 0.9)
        half = semigroup_step(rho, src, 0.04, 1.2, 0.4, 0.9)
        two = semigroup_step(half, src, 0.04, 1.2, 0.4, 0.9)
        assert np.allclose(one.values, two.values, rtol=1e-13, atol=1e-14)

    def test_zero_mode_mass_balance(self, grid1):
        # mean rho follows the exact scalar exponential formula each step
        rng = np.random.default_rng(2)
        D, r, alpha, dt = 1.0, 0.6, 0.7, 0.03
        rho = Field(grid1, rng.normal(size=grid1.shape))
        src = rng.normal(size=grid1.shape)
        out = semigroup_step(rho, src, dt, D, r, alpha)
        expected = (np.mean(rho.values) * np.exp(-r * dt)
                    + alpha * np.mean(src) * (1 - np.exp(-r * dt)) / r)
        assert np.mean(out.values) == pytest.approx(expected, rel=1e-12)

    def test_source_grid_mismatch(self, grid1):
        rho = Field(grid1, np.zeros(grid1.shape))
        with pytest.raises(GridMismatch):
            semigroup_step(rho, np.zeros(5), 0.01, 1.0, 1.0, 1.0)


class TestEvaluation:
    def test_single_mode_value_and_gradient(self, grid1):
        # analytic oracle for one Fourier mode
        m, L = 2, grid1.extent
        x = grid1.axis_coords()
        rho = Field(grid1, np.sin(2 * np.pi * m * x / L))
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, L, size=(200, 1))
        vals = rho.value_at(pts)
        grads = rho.gradient_at(pts)
        k = 2 * np.pi * m / L
        assert np.max(np.abs(vals - np.sin(k * pts[:, 0]))) < 1e-10
        assert np.max(np.abs(grads[:, 0] - k * np.cos(k * pts[:, 0]))) < 1e-8

    def test_single_mode_2d(self, grid2):
        L = grid2.extent
        nodes = grid2.node_coords()
        vals = np.cos(2 * np.pi * nodes[:, 0] / L) * np.sin(4 * np.pi * nodes[:, 1] / L)
        rho = Field(grid2, vals.reshape(grid2.shape))
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, L, size=(50, 2))
        kx, ky = 2 * np.pi / L, 4 * np.pi / L
        expect = np.cos(kx * pts[:, 0]) * np.sin(ky * pts[:, 1])
        gx = -kx * np.sin(kx * pts[:, 0]) * np.sin(ky * pts[:, 1])
        gy = ky * np.cos(kx * pts[:, 0]) * np.cos(ky * pts[:, 1])
        assert np.max(np.abs(rho.value_at(pts) - expect)) < 1e-10
        g = rho.gradient_at(pts)
        assert np.max(np.abs(g[:, 0] - gx)) < 1e-8
        assert np.max(np.abs(g[:, 1] - gy)) < 1e-8

    def test_constant_field_zero_gradient_exact(self, grid1, grid2):
        for grid in (grid1, grid2):
            rho = Field(grid, np.full(grid.shape, 3.25))
            pts = np.linspace(0.1, grid.extent - 0.1, 7).reshape(-1, 1)
            if grid.d == 2:
                pts = np.column_stack([pts, pts[::-1]])
            assert np.all(rho.gradient_at(pts) == 0.0)

    def test_node_reproduction(self, grid1):
        rng = np.random.default_rng(6)
        rho = Field(grid1, rng.normal(size=grid1.shape))
        nodes = grid1.node_coords()
        vals = rho.value_at(nodes)
        scale = np.max(np.abs(rho.values))
        assert np.max(np.abs(vals - rho.values.ravel())) < 1e-12 * scale

    def test_gradient_consistent_with_interpolant(self, grid1):
        # eval_grad must be the derivative of the value interpolant:
        # central finite differences of value_at converge to gradient_at
        rng = np.random.default_rng(7)
        rho = Field(grid1, rng.normal(size=grid1.shape))
        pts = rng.uniform(0, grid1.extent, size=(20, 1))
        h = 1e-6
        fd = (rho.value_at(pts + h) - rho.value_at(pts - h)) / (2 * h)
        assert np.allclose(rho.gradient_at(pts)[:, 0], fd, atol=1e-5)

    def test_non_finite_query(self, grid1):
        rho = Field(grid1, np.zeros(grid1.shape))
        with pytest.raises(NonFiniteQuery):
            rho.value_at(np.array([[np.nan]]))


class TestSharedPhases:
    """A caller that holds the points' ``point_phases`` passes them, and the
    result is what the field computes from the points."""

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 32)])
    def test_passed_phases_give_the_same_bits(self, d, n):
        grid = GridSpec(d, n, 8.0)
        rng = np.random.default_rng(31)
        rho = Field(grid, rng.normal(size=grid.shape))
        pts = rng.uniform(-8.0, 16.0, size=(300, d))
        pts[:3] = [0.0] * d, [8.0] * d, [-0.0] * d
        z = point_phases(grid, pts)
        assert z.shape == (d, 300)
        assert (rho.value_at(pts, phases=z).tobytes()
                == rho.value_at(pts).tobytes())
        assert (rho.gradient_at(pts, phases=z).tobytes()
                == rho.gradient_at(pts).tobytes())
        mu = EmpiricalMeasure(pts, rng.uniform(0.0, 1.0, 300))
        kern = Kernel(grid)
        assert (deposit(mu, kern, grid, phases=z).tobytes()
                == deposit(mu, kern, grid).tobytes())

    @pytest.mark.parametrize("d, n", [(1, 2), (1, 128), (2, 16)])
    def test_grid_transforms_equal_the_n_dimensional_ones(self, d, n):
        grid = GridSpec(d, n, 8.0)
        values = np.random.default_rng(32).normal(size=grid.shape)
        hat = grid_rfft(values)
        assert hat.tobytes() == np.fft.rfftn(values).tobytes()
        hat = hat * np.exp(-grid.rfft_k2())
        assert (grid_irfft(hat, grid).tobytes() == np.fft.irfftn(
            hat, s=grid.shape, axes=range(d)).tobytes())

    def test_semigroup_step_reuses_a_held_spectrum_and_attaches_none(self):
        grid = GridSpec(2, 16, 8.0)
        rng = np.random.default_rng(33)
        values, src = rng.normal(size=(2,) + grid.shape)
        fresh = Field(grid, values)
        out = semigroup_step(fresh, src, 0.05, 1.0, 0.5, 0.7)
        assert fresh._coef is None and out._coef is None
        held = Field(grid, values)
        held.gradient_grid()  # now holds its spectrum
        again = semigroup_step(held, src, 0.05, 1.0, 0.5, 0.7)
        assert again.values.tobytes() == out.values.tobytes()

    def test_step_multipliers_are_cached_read_only(self):
        from chemobranch.field import _semigroup_multipliers
        grid = GridSpec(1, 32, 8.0)
        first = _semigroup_multipliers(grid, 1.0, 0.5, 0.01)
        assert _semigroup_multipliers(grid, 1.0, 0.5, 0.01) is first
        for arr in first:
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestModeMajorKernel:
    """The field's off-grid kernel: per-point results that do not depend on
    the batch, and O(m) memory in 1-D."""

    @pytest.mark.parametrize("d, n", [(1, 128), (2, 64)])
    def test_point_alone_equals_point_in_batch(self, d, n):
        # a hybrid run evaluates one line's cells, a micro run thousands of
        # cells; the bits of a cell's value must not depend on which
        grid = GridSpec(d, n, 8.0)
        rng = np.random.default_rng(21)
        rho = Field(grid, rng.normal(size=grid.shape))
        batch = rng.uniform(-8.0, 16.0, size=(5000, d))
        values, grads = rho.value_at(batch), rho.gradient_at(batch)
        for i in (0, 1, 7, 8, 9, 2500, 4999):
            assert rho.value_at(batch[i]).tobytes() == values[i:i + 1].tobytes()
            assert (rho.gradient_at(batch[i:i + 1]).tobytes()
                    == grads[i:i + 1].tobytes())
        for lo, hi in ((0, 3), (17, 33), (100, 1124)):
            assert rho.value_at(batch[lo:hi]).tobytes() == values[lo:hi].tobytes()
            assert (rho.gradient_at(batch[lo:hi]).tobytes()
                    == grads[lo:hi].tobytes())

    @pytest.mark.parametrize("d", [1, 2])
    def test_extinct_population_deposits_zero(self, d):
        from chemobranch import PopulationState, empirical
        grid = GridSpec(d, 32, 8.0)
        extinct = PopulationState(1.0, d, [1], [0], [0], [0.0], [0.5],
                                  np.full((1, d), np.nan))
        mu = empirical(extinct, 4)
        assert len(mu.weights) == 0
        src = deposit(mu, Kernel(grid), grid)
        assert src.shape == grid.shape and np.all(src == 0.0)

    def test_no_per_point_mode_table_in_1d(self):
        # an (m, n/2 + 1) complex table at m = n = 2048 would take 33.6 MB
        import tracemalloc
        grid = GridSpec(1, 2048, 8.0)
        rng = np.random.default_rng(22)
        rho = Field(grid, rng.normal(size=grid.shape))
        pts = rng.uniform(0.0, 8.0, size=(2048, 1))
        mu = EmpiricalMeasure(pts, np.full(2048, 1e-3))
        kern = Kernel(grid)
        rho.gradient_at(pts[:1])  # the cached spectrum is not per point
        tracemalloc.start()
        try:
            rho.value_at(pts)
            rho.gradient_at(pts)
            deposit(mu, kern, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 1025 * 16 / 8


def test_check_path_against_the_run_steps(grid1):
    # a path at k·dt passes, also with the times semigroup_step accumulates,
    # which differ from k·dt at round-off; another step or count is refused
    exact = tuple(Field(grid1, np.zeros(grid1.n), k * 0.1) for k in range(4))
    stepped = [exact[0]]
    for _ in range(3):
        stepped.append(semigroup_step(stepped[-1], None, 0.1, 1.0, 0.5, 0.0))
    for path in (exact, tuple(stepped)):
        check_path(path, 0.1, 3)
        for dt, n_steps in ((0.1, 4), (0.05, 3), (0.2, 2)):
            with pytest.raises(ValueError, match="not stored at the"):
                check_path(path, dt, n_steps)


def read_field(blob):
    """Parse the field_to_bytes layout: magic, d, n, L, t, row-major values."""
    assert blob[:4] == b"CBF1"
    d, n = struct.unpack("<ii", blob[4:12])
    extent, t = struct.unpack("<dd", blob[12:28])
    grid = GridSpec(d, n, extent)
    values = np.frombuffer(blob[28:], dtype="<f8").reshape(grid.shape)
    return Field(grid, values, t)


class TestFieldIO:
    def test_binary_round_trip(self, grid2):
        rng = np.random.default_rng(9)
        rho = Field(grid2, rng.normal(size=grid2.shape), time=2.25)
        back = read_field(field_to_bytes(rho))
        assert back.grid == grid2 and back.time == 2.25
        assert np.array_equal(back.values, rho.values)

    def test_csv_layout(self, grid1):
        rho = Field(grid1, np.arange(grid1.n, dtype=float))
        lines = field_to_csv_lines(rho)
        assert lines[0] == "x,value"
        assert len(lines) == grid1.n + 1
        assert lines[1] == "0.0,0.0"


class TestFieldAlongRuns:
    def make_run(self):
        from chemobranch import (DriftSpec, InitialFieldSpec,
                                 InitialMeasureSpec, ModelParams,
                                 NoiseUniverse, RateSpec,
                                 simulate_microscopic)
        params = ModelParams(
            grid=GridSpec(1, 128, 8.0),
            sigma=0.2, D=1.0, r=0.5, alpha=0.5, lambda_bar=0.6,
            birth=RateSpec("constant", {"c": 0.3}),
            death=RateSpec("constant", {"c": 0.1}),
            drift=DriftSpec("chemotaxis", {"chi": 0.5, "gsat": 2.0}),
            mu0=InitialMeasureSpec("gaussian", {"center": [4.0], "sd": 0.5}),
            rho0=InitialFieldSpec("bump", {"amp": 1.0, "center": [4.0],
                                           "width": 1.0}),
            dt=0.02, T=1.0)
        traj, states, fields = record(simulate_microscopic, params, 60,
                                      NoiseUniverse(12, 1))
        return params, traj, states, fields

    def test_gradient_budget_along_microscopic_run(self):
        # sup|grad rho_t| <= sup|grad rho_0| + t sup|grad kernel| sup_s<1,xi_s>
        # with 10% discretization slack
        params, traj, states, fields = self.make_run()
        kern = params.make_kernel()
        # sup |kernel'| by finite differences on a fine 1-D sampling
        xs = np.linspace(-params.grid.extent / 2, params.grid.extent / 2, 8192)
        profile = reference_periodized_gaussian(xs, kern.width,
                                                params.grid.extent)
        grad_sup_kernel = np.max(np.abs(np.gradient(profile, xs)))
        sup_mass = max(s.live_count / len(traj.founder_lines)
                       for s in states)
        grad0 = np.max(np.abs(fields[0].gradient_grid()[0]))
        for k, t in enumerate(params.times()):
            grad_t = np.max(np.abs(fields[k].gradient_grid()[0]))
            budget = grad0 + t * grad_sup_kernel * sup_mass
            assert grad_t <= 1.1 * budget + 1e-12

    def test_field_stays_nonnegative_for_nonnegative_data(self):
        # nonnegative initial field, kernel, and weights keep the field
        # nonnegative up to spectral round-off
        fields = self.make_run()[3]
        for f in fields:
            assert np.min(f.values) >= -1e-12

    def test_zero_mode_balance_along_microscopic_run(self):
        # replay each step's mean-field balance from the recorded snapshots:
        # the deposit is recomputed from the end-of-step population exactly
        from chemobranch import deposit, empirical
        params, traj, states, fields = self.make_run()
        kern = params.make_kernel()
        r, alpha, dt = params.r, params.alpha, params.dt
        n0 = len(traj.founder_lines)
        for k in range(params.n_steps):
            src = deposit(empirical(states[k + 1], n0), kern, params.grid)
            expected = (np.mean(fields[k].values) * np.exp(-r * dt)
                        + alpha * np.mean(src) * (1 - np.exp(-r * dt)) / r)
            assert np.mean(fields[k + 1].values) == pytest.approx(
                expected, rel=1e-12)
