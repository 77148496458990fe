import io

import numpy as np

from chemobranch import (DriftSpec, GridSpec, InitialFieldSpec,
                         InitialMeasureSpec, ModelParams, RateSpec, mean_se,
                         simulate_mass_ensemble)
from chemobranch.population import SnapshotWriter

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance_line(line: str):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    # criterion verdicts print inside captured stdout; repeat them where
    # they are always visible
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def model_params(**over):
    """The ``FULL_COUPLING`` model of ``tests/test_acceptance.py`` as
    ``ModelParams``, with the fields in ``over`` replaced."""
    defaults = dict(
        grid=GridSpec(1, 128, 8.0),
        sigma=0.2, D=1.0, r=0.5, alpha=0.5, lambda_bar=0.6,
        birth=RateSpec("logistic", {"c": 0.3, "slope": 2.0, "center": 0.2}),
        death=RateSpec("constant", {"c": 0.1}),
        drift=DriftSpec("chemotaxis", {"chi": 0.5, "gsat": 2.0}),
        mu0=InitialMeasureSpec("gaussian", {"center": [4.0], "sd": 0.5}),
        rho0=InitialFieldSpec("bump", {"amp": 1.0, "center": [4.0],
                                       "width": 1.0}),
        dt=0.02, T=1.0,
    )
    defaults.update(over)
    return ModelParams(**defaults)


def states_equal(a, b) -> bool:
    """Whether two population states hold the same cells, keys and words
    included, with the same births, deaths and positions, bit for bit."""
    return (np.array_equal(a.keys, b.keys)
            and np.array_equal(a.lines, b.lines)
            and np.array_equal(a.word_lens, b.word_lens)
            and np.array_equal(a.word_bits, b.word_bits)
            and np.array_equal(a.births, b.births)
            and np.array_equal(a.deaths, b.deaths)
            and np.array_equal(a.positions, b.positions, equal_nan=True))


def record(run, *args, **kwargs):
    """``run(*args, **kwargs)`` (``simulate_lines``, ``simulate_microscopic``
    or ``simulate_hybrid``) with an observer that keeps every checkpoint:
    returns the trajectory, the states and the fields, one per checkpoint."""
    states, fields = [], []

    def observe(k, state, rho):
        assert k == len(states)
        states.append(state)
        fields.append(rho)

    traj = run(*args, observe=observe, **kwargs)
    return traj, states, fields


def record_mass(*args, **kwargs):
    """``simulate_mass_ensemble(*args, **kwargs)`` with an observer that
    keeps every checkpoint: returns the ensemble and the paths X (K,
    n_steps + 1, d) and M (K, n_steps + 1)."""
    xs, ms = [], []

    def observe(k, X, M):
        assert k == len(xs)
        xs.append(X)
        ms.append(M)

    ens = simulate_mass_ensemble(*args, observe=observe, **kwargs)
    return ens, np.stack(xs, axis=1), np.stack(ms, axis=1)


def mass_pairing(X, M, phi, k) -> tuple[float, float]:
    """Mean and standard error over replicas of <phi, mu> at checkpoint k
    of recorded mass paths, M * phi(X) as the ``mass`` command pairs it."""
    return mean_se(M[:, k] * np.asarray(phi(X[:, k])))


def event_rows(events):
    """The rows of a run's ``EventColumns`` in the order they happen, as
    Python values: (time, line, word length, word bits, branched, position),
    the position a tuple of floats."""
    return list(zip(events.time.tolist(), events.line.tolist(),
                    events.word_len.tolist(), events.word_bits.tolist(),
                    events.branch.tolist(),
                    map(tuple, events.position.tolist())))


def written(pop) -> str:
    """The text of the state ``pop`` as a ``SnapshotWriter`` writes it on
    its own."""
    out = io.StringIO()
    SnapshotWriter(out).write(pop)
    return out.getvalue()


def row_by_row_lines(pop):
    """Reference for the snapshot writer: one f-string per row."""
    def fmt(x):
        return repr(float(x))

    out = [f"# population t={fmt(pop.time)} d={pop.d}"]
    for row in range(len(pop)):
        head = (f"{pop.lines[row]} {pop.word_bits[row]} {pop.word_lens[row]} "
                f"{fmt(pop.births[row])} {fmt(pop.deaths[row])}")
        pos = pop.positions[row]
        if np.isnan(pos[0]):
            out.append(head + " dead")
        else:
            out.append(head + " " + " ".join(fmt(x) for x in pos))
    return out
