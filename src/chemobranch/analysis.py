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

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import Field
from .meanfield import simulate_hybrid, solve_selfconsistent_field
from .microscopic import (MicroTrajectory, ModelParams,
                          lineage_restriction, simulate_microscopic)
from .population import EmpiricalMeasure, integrate, mean_se, state_distance
from .randomness import NoiseUniverse


# ---------------------------------------------------------------------------
# Test functions

def _offsets(x, centers: np.ndarray, radii: np.ndarray,
             extents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wrapped offsets y, (k, m, d), of m points from k bump centers, and
    u^2 = |y|^2 / radius^2, (k, m)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    half = 0.5 * extents[:, None, None]
    y = (x - centers[:, None, :] + half) % extents[:, None, None] - half
    return y, np.sum(y * y, axis=2) / radii[:, None] ** 2


def _bump(u2: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - u^2)) inside the unit ball, 0 outside."""
    inside = u2 < 1.0
    out = np.zeros(u2.shape)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
    return out


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

    Accepts empirical measures or grid fields on the same torus; the absolute
    value makes the expression symmetric.
    """
    pa = _pair_any(mu, bank)
    pb = _pair_any(nu, bank)
    return float(np.sum(bank.weights * np.minimum(1.0, np.abs(pa - pb))))


def _pair_any(obj, bank: TestFunctionBank) -> np.ndarray:
    if isinstance(obj, EmpiricalMeasure):
        return bank.pair_measure(obj)
    if isinstance(obj, Field):
        return bank.pair_field(obj)
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
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return phat, max(0.0, center - half), min(1.0, center + half)


def fit_loglog_slope(n0s, means) -> float:
    x = np.log(np.asarray(n0s, dtype=np.float64))
    y = np.log(np.maximum(np.asarray(means, dtype=np.float64), 1e-300))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def _aggregate_rows(kind: str, n0: int, values: np.ndarray) -> list[ReportRow]:
    """Per-replica ``raw`` rows, then the ``mean`` row (mean, SE, 10/90%
    quantiles) last."""
    rows = [ReportRow(kind, n0, r, "raw", float(v), 0.0, float(v), float(v))
            for r, v in enumerate(values)]
    mean, se = mean_se(values)
    lo, hi = (float(np.quantile(values, 0.1)), float(np.quantile(values, 0.9)))
    rows.append(ReportRow(kind, n0, len(values), "mean", mean, se, lo, hi))
    return rows


def _wilson_row(kind: str, n0: int, hits: int, n: int) -> ReportRow:
    phat, lo, hi = wilson_interval(hits, n)
    se = float(np.sqrt(max(phat * (1 - phat), 0.0) / n))
    return ReportRow(kind, n0, n, "wilson", phat, se, lo, hi)


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

def measure_convergence_experiment(params: ModelParams, n0_list, replicas: int,
                                   universe: NoiseUniverse) -> ConvergenceReport:
    """Hydrodynamic-limit check: empirical measures against the mean measure.

    For each population size and replica this records the sup over the
    checkpoint grid of the vague distance between the rescaled empirical
    measure and the deterministic mean measure, and the sup of the field and
    field-gradient errors against the deterministic field.
    """
    p = params
    n0_list = [int(n) for n in n0_list]
    bank = TestFunctionBank.default_for_grid(p.grid)
    scf = solve_selfconsistent_field(p, "macroscopic")
    n_checks = p.n_steps + 1
    ref_density = [Field(p.grid, scf.p_path.values[k]) for k in range(n_checks)]
    ref_grad = [Field(p.grid, scf.rho_path.values[k]).gradient_grid()
                for k in range(n_checks)]

    def one_replica(r: int):
        u_r = universe.child("replica", r)
        out = {}
        for n0 in n0_list:
            traj = simulate_microscopic(p, n0, u_r)
            sup_dm = 0.0
            sup_field = 0.0
            for k in range(n_checks):
                dm = vague_distance(traj.measure_at(k), ref_density[k], bank)
                sup_dm = max(sup_dm, dm)
                err_val = float(np.max(np.abs(traj.fields[k].values
                                              - scf.rho_path.values[k])))
                grads = traj.fields[k].gradient_grid()
                gerr = np.sqrt(sum((g - rg) ** 2
                               for g, rg in zip(grads, ref_grad[k])))
                sup_field = max(sup_field, err_val + float(np.max(gerr)))
            out[n0] = (sup_dm, sup_field)
        return out

    per_replica = [one_replica(r) for r in range(replicas)]

    rows: list[ReportRow] = []
    summary: dict = {"n0_list": n0_list, "replicas": replicas}
    for kind, pick in (("d_M", 0), ("field", 1)):
        means, ses = [], []
        for n0 in n0_list:
            values = np.array([per_replica[r][n0][pick] for r in range(replicas)])
            agg = _aggregate_rows(kind, n0, values)
            rows.extend(agg)
            means.append(agg[-1].value)
            ses.append(agg[-1].se)
        entry = {"means": means, "ses": ses}
        entry.update(_trend_flags(np.array(means), np.array(ses)))
        if kind == "d_M":
            entry["slope"] = fit_loglog_slope(n0_list, means)
        summary[kind] = entry
    return ConvergenceReport(rows, summary)


def _event_signature(traj: MicroTrajectory) -> list[tuple]:
    return [(ev.time, ev.idx.line, ev.idx.word_len, ev.idx.word_bits, ev.kind)
            for ev in traj.event_log]


def coupling_experiment(params: ModelParams, n0_list, replicas: int,
                        epsilon_list, universe: NoiseUniverse
                        ) -> ConvergenceReport:
    """Pathwise coupling of the first line against the mean-field process.

    Shares one noise universe per replica across all population sizes, so the
    first line of every microscopic run and the single-line mean-field run
    consume identical streams; the only divergence channels are the field gap
    and the event-acceptance bands it shifts.
    """
    p = params
    n0_list = [int(n) for n in n0_list]
    epsilon_list = [float(e) for e in epsilon_list]
    scf = solve_selfconsistent_field(p, "macroscopic")
    n_checks = p.n_steps + 1
    L = p.grid.extent

    def one_replica(r: int):
        u_r = universe.child("replica", r)
        hybrid = simulate_hybrid(p, scf.rho_path, u_r)
        hybrid_sig = _event_signature(hybrid)
        out = {}
        for n0 in n0_list:
            micro = simulate_microscopic(p, n0, u_r)
            line1 = lineage_restriction(micro, 1)
            sup_dx = max(state_distance(line1.states[k], hybrid.states[k],
                                        extent=L) for k in range(n_checks))
            mismatch = _event_signature(line1) != hybrid_sig
            out[n0] = (sup_dx, mismatch)
        return out

    per_replica = [one_replica(r) for r in range(replicas)]

    rows: list[ReportRow] = []
    summary: dict = {"n0_list": n0_list, "replicas": replicas,
                     "epsilon_list": epsilon_list}
    sup_means = []
    for n0 in n0_list:
        values = np.array([per_replica[r][n0][0] for r in range(replicas)])
        agg = _aggregate_rows("d_X_sup", n0, values)
        rows.extend(agg)
        sup_means.append(agg[-1].value)
    summary["d_X_sup"] = {"means": sup_means,
                          "max_value": float(max(
                              per_replica[r][n0][0]
                              for r in range(replicas) for n0 in n0_list))}

    for eps in epsilon_list:
        kind = f"exceed_{eps:g}"
        series = []
        for n0 in n0_list:
            exceed = sum(per_replica[r][n0][0] > eps for r in range(replicas))
            row = _wilson_row(kind, n0, exceed, replicas)
            rows.append(row)
            series.append((row.value, row.lo, row.hi))
        monotone = all(
            series[i + 1][0] <= series[i][0]       # point estimates decrease
            or series[i + 1][1] <= series[i][2]    # or intervals overlap
            for i in range(len(series) - 1))
        summary[kind] = {"phat": [s[0] for s in series],
                         "lo": [s[1] for s in series],
                         "hi": [s[2] for s in series],
                         "non_increasing_overlap": bool(monotone)}

    mism_series = []
    for n0 in n0_list:
        hits = sum(per_replica[r][n0][1] for r in range(replicas))
        row = _wilson_row("event_mismatch", n0, hits, replicas)
        rows.append(row)
        mism_series.append(row.value)
    summary["event_mismatch"] = {"phat": mism_series}
    return ConvergenceReport(rows, summary)


def yule_bound_check(params: ModelParams, n0: int, replicas: int,
                     universe: NoiseUniverse) -> ConvergenceReport:
    """Domination of the rescaled live count by the constant-rate pure-birth mean."""
    p = params

    def one_replica(r: int) -> float:
        u_r = universe.child("replica", r)
        traj = simulate_microscopic(p, n0, u_r, keep_dead=False)
        return traj.sup_live_over_n0()

    values = np.array([one_replica(r) for r in range(replicas)])
    rows = _aggregate_rows("yule", n0, values)
    mean, se = rows[-1].value, rows[-1].se
    bound = float(np.exp(p.lambda_bar * p.T))
    summary = {
        "n0": n0, "replicas": replicas, "mean": mean, "se": se,
        "bound": bound, "pass": bool(mean - 3.0 * se <= bound),
        # None (JSON null) when every replica agrees: the gap has no scale
        "gap_in_se": float((bound - mean) / se) if se > 0 else None,
    }
    return ConvergenceReport(rows, summary)
