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
