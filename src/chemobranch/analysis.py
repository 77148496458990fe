"""Convergence experiments: measure distance, field error, pathwise coupling.

The vague metric is a weighted series over a fixed bank of smooth compactly
supported bumps; a fixed documented bank keeps the metric reproducible.
"In probability" statements are rendered as exceedance frequencies with
Wilson 95% intervals.  Every experiment is a pure function of
(params, universe, n0_list, replicas): replicas run one after another in
index order on child universes and aggregate in that order, so reports are
byte-identical on rerun.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .field import Field
from .meanfield import (rebuild_field_path, simulate_hybrid,
                        solve_selfconsistent_field)
from .microscopic import ModelParams, simulate_lines, simulate_microscopic
from .population import (EmpiricalMeasure, empirical, integrate, mean_se,
                         state_distance)
from .randomness import NoiseUniverse


# ---------------------------------------------------------------------------
# Test functions

def _offsets(x, centers: np.ndarray, radii: np.ndarray,
             extents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wrapped offsets y, (k, m, d), of m points from k bump centers, and
    u^2 = |y|^2 / radius^2, (k, m)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    extents = extents[:, None, None]
    half = 0.5 * extents
    # (x - c + L/2) mod L, as np.mod computes it but without its quotient:
    # fmod, plus L where that is negative; the -0.0 that fmod can leave
    # (np.mod gives +0.0) is gone once L/2 is subtracted
    y = np.fmod(x - centers[:, None, :] + half, extents)
    np.add(y, extents, out=y, where=y < 0.0)
    y -= half
    return y, np.sum(y * y, axis=2) / radii[:, None] ** 2


def _bump(u2: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - u^2)) inside the unit ball, 0 outside."""
    with np.errstate(divide="ignore", over="ignore"):
        arg = 1.0 - 1.0 / (1.0 - u2)
    return np.exp(arg, out=np.zeros(u2.shape), where=u2 < 1.0)


class BumpFunction:
    """Radial mollifier bump: exp(1 - 1/(1-u^2)) with u = |x - c|_wrap / radius.

    Smooth, compactly supported in the ball of the given radius, with closed
    forms for gradient and Laplacian (needed by weak-form residuals).
    """

    def __init__(self, center, radius: float, extent: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        self.radius = float(radius)
        self.extent = float(extent)
        if not 0 < self.radius < extent / 2:
            raise ValueError("bump radius must be in (0, extent/2)")

    def _u2(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y, u2 = _offsets(x, self.center[None], np.array([self.radius]),
                         np.array([self.extent]))
        return y[0], u2[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _bump(self._u2(x)[1])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        y, u2 = self._u2(x)
        inside = u2 < 1.0
        out = np.zeros_like(y)
        with np.errstate(divide="ignore", over="ignore"):
            psi = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
            a = -2.0 * psi / (self.radius ** 2 * (1.0 - u2[inside]) ** 2)
            out[inside] = a[:, None] * y[inside]
        return out

    def laplacian(self, x: np.ndarray) -> np.ndarray:
        y, u2 = self._u2(x)
        d = y.shape[1]
        inside = u2 < 1.0
        out = np.zeros(len(u2))
        with np.errstate(divide="ignore", over="ignore"):
            v = u2[inside]
            one = 1.0 - v
            psi = np.exp(1.0 - 1.0 / one)
            a = -2.0 * psi / (self.radius ** 2 * one ** 2)
            # u * A'(u) with A' = (-2 psi u / s^2) (2 - 4u^2) / (1-u^2)^4
            u_aprime = (-2.0 * psi * v / self.radius ** 2) * (2.0 - 4.0 * v) / one ** 4
            out[inside] = d * a + u_aprime
        return out


class TestFunctionBank:
    """Weighted bank (weights 2^-k) of bumps covering the torus at two scales."""

    __test__ = False  # not a pytest class, despite the domain name

    def __init__(self, functions: list[BumpFunction]):
        if not functions:
            raise ValueError("bank must contain at least one function")
        self.functions = list(functions)
        self.weights = np.array([2.0 ** -(k + 1) for k in range(len(functions))])
        self._centers = np.stack([f.center for f in self.functions])
        self._radii = np.array([f.radius for f in self.functions])
        self._extents = np.array([f.extent for f in self.functions])
        self._node_cache: dict = {}

    @classmethod
    def default_for_grid(cls, grid) -> "TestFunctionBank":
        L = grid.extent
        funcs = []
        if grid.d == 1:
            for c in (0.125, 0.375, 0.625, 0.875):
                funcs.append(BumpFunction([c * L], 0.22 * L, L))
            for c in (0.25, 0.5, 0.75, 0.0):
                funcs.append(BumpFunction([c * L], 0.11 * L, L))
        else:
            corners = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
            for cx, cy in corners:
                funcs.append(BumpFunction([cx * L, cy * L], 0.3 * L, L))
            for cx, cy in corners:
                funcs.append(BumpFunction([cx * L, cy * L], 0.15 * L, L))
        return cls(funcs)

    def node_values(self, grid) -> np.ndarray:
        key = (grid.d, grid.n, grid.extent)
        if key not in self._node_cache:
            nodes = grid.node_coords()
            self._node_cache[key] = self._values(nodes)
        return self._node_cache[key]

    def _values(self, x) -> np.ndarray:
        """Every bump at the points in one pass, shape (len(functions), m)."""
        return _bump(_offsets(x, self._centers, self._radii, self._extents)[1])

    def pair_measure(self, measure: EmpiricalMeasure) -> np.ndarray:
        return integrate(measure, self._values)

    def pair_field(self, field: Field) -> np.ndarray:
        vals = self.node_values(field.grid)
        return vals @ field.values.ravel() * field.grid.cell_volume


def vague_distance(mu, nu, bank: TestFunctionBank) -> float:
    """Weighted vague metric: sum_k 2^-k min(1, |<phi_k, mu - nu>|).

    Accepts empirical measures or grid fields on the same torus, or their
    pairings with the bank, one per function; the absolute value makes the
    expression symmetric.
    """
    pa = _pair_any(mu, bank)
    pb = _pair_any(nu, bank)
    return float(np.sum(bank.weights * np.minimum(1.0, np.abs(pa - pb))))


def _pair_any(obj, bank: TestFunctionBank) -> np.ndarray:
    if isinstance(obj, EmpiricalMeasure):
        return bank.pair_measure(obj)
    if isinstance(obj, Field):
        return bank.pair_field(obj)
    if isinstance(obj, np.ndarray) and obj.shape == bank.weights.shape:
        return obj
    raise TypeError(f"cannot pair object of type {type(obj)!r}")


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class ReportRow:
    kind: str
    n0: int
    replica: int
    stat: str
    value: float
    se: float
    lo: float
    hi: float


@dataclass
class ConvergenceReport:
    rows: list[ReportRow]
    summary: dict = dc_field(default_factory=dict)

    CSV_HEADER = "kind,n0,replica,stat,value,se,lo,hi"

    def to_csv_lines(self) -> list[str]:
        out = [self.CSV_HEADER]
        for row in self.rows:
            out.append(",".join([
                row.kind, str(row.n0), str(row.replica), row.stat,
                repr(row.value), repr(row.se), repr(row.lo), repr(row.hi),
            ]))
        return out


def wilson_interval(successes: int, n: int) -> tuple[float, float, float]:
    """(point estimate, lower, upper) of the 95% Wilson score interval."""
    if n == 0:
        return 0.0, 0.0, 1.0
    z = 1.96
    phat = float(successes) / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return phat, max(0.0, center - half), min(1.0, center + half)


def fit_loglog_slope(n0s, means) -> float:
    x = np.log(np.asarray(n0s, dtype=np.float64))
    y = np.log(np.maximum(np.asarray(means, dtype=np.float64), 1e-300))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def _series(kind: str, n0_list, values: np.ndarray
            ) -> tuple[list[ReportRow], list[float], list[float]]:
    """Rows of one series, ``values`` (replicas, len(n0_list)): per n0 the
    ``raw`` row of each replica, then the ``mean`` row (mean, SE, 10/90%
    quantiles).  Returns the rows and the means and SEs in n0 order."""
    rows, means, ses = [], [], []
    for n0, col in zip(n0_list, values.T):
        rows += [ReportRow(kind, n0, r, "raw", float(v), 0.0, float(v),
                           float(v)) for r, v in enumerate(col)]
        mean, se = mean_se(col)
        rows.append(ReportRow(kind, n0, len(col), "mean", mean, se,
                              float(np.quantile(col, 0.1)),
                              float(np.quantile(col, 0.9))))
        means.append(mean)
        ses.append(se)
    return rows, means, ses


def _wilson_series(kind: str, n0_list, hits, n: int) -> tuple[
        list[ReportRow], list[float], list[float], list[float]]:
    """One ``wilson`` row per n0 for ``hits`` of ``n`` replicas; returns the
    rows and the point estimates, lower and upper bounds in n0 order."""
    rows = []
    for n0, h in zip(n0_list, hits):
        phat, lo, hi = wilson_interval(h, n)
        se = float(np.sqrt(max(phat * (1 - phat), 0.0) / n))
        rows.append(ReportRow(kind, n0, n, "wilson", phat, se, lo, hi))
    return (rows, [r.value for r in rows], [r.lo for r in rows],
            [r.hi for r in rows])


def _trend_flags(means: np.ndarray, ses: np.ndarray) -> dict:
    diffs = np.diff(means)
    inversions = int(np.sum(diffs > 0))
    within_se = all(
        d <= 0 or d <= 2.0 * np.hypot(ses[i], ses[i + 1])
        for i, d in enumerate(diffs))
    return {
        "strictly_decreasing": bool(np.all(diffs < 0)),
        "non_increasing_within_se": bool(inversions <= 1 and within_se),
    }


# ---------------------------------------------------------------------------
# Experiments

def _sups(params: ModelParams, n0: int, universe: NoiseUniverse, measure):
    """Run the microscopic model and keep, for each entry of
    ``measure(k, state, rho)``, its sup over the checkpoints (from 0.0).
    Returns the sups and the run."""
    sups: list[float] = []

    def observe(k, state, rho):
        values = measure(k, state, rho)
        sups[:] = map(max, sups or [0.0] * len(values), values)

    return sups, simulate_microscopic(params, n0, universe, observe=observe)


def measure_convergence_experiment(params: ModelParams, n0_list, replicas: int,
                                   universe: NoiseUniverse) -> ConvergenceReport:
    """Hydrodynamic-limit check: empirical measures against the mean measure.

    For each population size and replica this records the sup over the
    checkpoint grid of the vague distance between the rescaled empirical
    measure and the deterministic mean measure, and the sup of the field and
    field-gradient errors against the deterministic field.  The summary's
    ``pass`` holds when both fall strictly with n0 and the distance's
    log-log slope lies in [-0.7, -0.3], the n0^(-1/2) rate.
    """
    p = params
    n0_list = [int(n) for n in n0_list]
    bank = TestFunctionBank.default_for_grid(p.grid)
    scf = solve_selfconsistent_field(p, "macroscopic")
    ref_grad = [rho.gradient_grid() for rho in scf.rho_path]
    ref_pairs = [bank.pair_field(dens) for dens in scf.p_path]

    def errors(n0, k, state, rho):
        """The vague distance to the mean measure and the field error."""
        dm = vague_distance(empirical(state, n0), ref_pairs[k], bank)
        err_val = float(np.max(np.abs(rho.values - scf.rho_path[k].values)))
        gerr = np.sqrt(sum((g - rg) ** 2
                           for g, rg in zip(rho.gradient_grid(), ref_grad[k])))
        return dm, err_val + float(np.max(gerr))

    def one_replica(u_r: NoiseUniverse) -> list[list[float]]:
        return [_sups(p, n0, u_r, partial(errors, n0))[0] for n0 in n0_list]

    values = np.array([one_replica(universe.child("replica", r))
                       for r in range(replicas)])

    rows: list[ReportRow] = []
    summary: dict = {"n0_list": n0_list, "replicas": replicas}
    for kind, series in (("d_M", values[..., 0]), ("field", values[..., 1])):
        kind_rows, means, ses = _series(kind, n0_list, series)
        rows += kind_rows
        summary[kind] = {"means": means, "ses": ses,
                         **_trend_flags(np.array(means), np.array(ses))}
    dm, fl = summary["d_M"], summary["field"]
    dm["slope"] = fit_loglog_slope(n0_list, dm["means"])
    summary["pass"] = bool(dm["strictly_decreasing"]
                           and -0.7 <= dm["slope"] <= -0.3
                           and fl["strictly_decreasing"])
    return ConvergenceReport(rows, summary)


def coupling_experiment(params: ModelParams, n0_list, replicas: int,
                        epsilon_list, universe: NoiseUniverse
                        ) -> ConvergenceReport:
    """Pathwise coupling of the first line against the mean-field process.

    Shares one noise universe per replica across all population sizes, so the
    first line of every microscopic run and the single-line mean-field run
    consume identical streams; the only divergence channels are the field gap
    and the event-acceptance bands it shifts.  The summary's ``pass`` holds
    when, at every epsilon, the frequency of sup_t d_X > epsilon does not
    grow with n0 beyond overlapping Wilson intervals.
    """
    p = params
    n0_list = [int(n) for n in n0_list]
    epsilon_list = [float(e) for e in epsilon_list]
    scf = solve_selfconsistent_field(p, "macroscopic")
    L = p.grid.extent

    def one_replica(u_r: NoiseUniverse) -> list[tuple[float, bool]]:
        single = []  # the hybrid's states, one line each
        hybrid = simulate_hybrid(p, scf.rho_path, u_r,
                                 observe=lambda k, state, rho:
                                 single.append(state))

        def gap(k, state, rho):
            return (state_distance(state.restrict_to_line(1), single[k],
                                   extent=L),)

        out = []
        for n0 in n0_list:
            (sup_dx,), run = _sups(p, n0, u_r, gap)
            line1 = run.events.line == 1
            mismatch = not all(
                np.array_equal(getattr(run.events, name)[line1],
                               getattr(hybrid.events, name))
                for name in ("time", "word_len", "word_bits", "branch"))
            out.append((sup_dx, mismatch))
        return out

    values = np.array([one_replica(universe.child("replica", r))
                       for r in range(replicas)])
    sup_dx, mismatch = values[..., 0], values[..., 1]

    rows, means, _ = _series("d_X_sup", n0_list, sup_dx)
    summary: dict = {"n0_list": n0_list, "replicas": replicas,
                     "epsilon_list": epsilon_list,
                     "d_X_sup": {"means": means,
                                 "max_value": float(np.max(sup_dx))}}
    for eps in epsilon_list:
        kind = f"exceed_{eps:g}"
        eps_rows, phat, lo, hi = _wilson_series(
            kind, n0_list, np.sum(sup_dx > eps, axis=0), replicas)
        rows += eps_rows
        monotone = all(
            phat[i + 1] <= phat[i]       # point estimates decrease
            or lo[i + 1] <= hi[i]        # or intervals overlap
            for i in range(len(phat) - 1))
        summary[kind] = {"phat": phat, "lo": lo, "hi": hi,
                         "non_increasing_overlap": monotone}

    mism_rows, phat, _, _ = _wilson_series(
        "event_mismatch", n0_list, np.sum(mismatch, axis=0), replicas)
    rows += mism_rows
    summary["event_mismatch"] = {"phat": phat}
    summary["pass"] = all(summary[f"exceed_{eps:g}"]["non_increasing_overlap"]
                          for eps in epsilon_list)
    return ConvergenceReport(rows, summary)


def yule_bound_check(params: ModelParams, n0: int, replicas: int,
                     universe: NoiseUniverse) -> ConvergenceReport:
    """Domination of the rescaled live count by the constant-rate pure-birth mean."""
    p = params
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    # with alpha = 0 the field does not depend on the cells: one path, built
    # by the coupled run's own stepping, serves every replica
    rho_path = (rebuild_field_path(p, lambda k: None) if p.alpha == 0.0
                else None)

    def one_replica(u_r: NoiseUniverse) -> list[float]:
        traj = simulate_lines(p, range(1, n0 + 1), u_r, rho_path=rho_path)
        return [traj.sup_live_over_n0()]

    values = np.array([one_replica(universe.child("replica", r))
                       for r in range(replicas)])
    rows, (mean,), (se,) = _series("yule", [n0], values)
    bound = float(np.exp(p.lambda_bar * p.T))
    summary = {
        "n0": n0, "replicas": replicas, "mean": mean, "se": se,
        "bound": bound, "pass": bool(mean - 3.0 * se <= bound),
        # None (JSON null) when every replica agrees: the gap has no scale
        "gap_in_se": float((bound - mean) / se) if se > 0 else None,
    }
    return ConvergenceReport(rows, summary)
