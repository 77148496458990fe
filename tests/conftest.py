import io

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
