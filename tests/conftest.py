import pytest

from fasmon import derive_link, resolve_config


@pytest.fixture(scope="session")
def ref_params():
    """The reference setup, which an empty config resolves to: 20 dB source
    power, 30 dB jamming cap, -18 dB cross-link ratio, unit noise variances,
    delta 0.05, 8 ports, W = 5."""
    return resolve_config({}).params


@pytest.fixture(scope="session")
def ref_link(ref_params):
    return derive_link(ref_params)


_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collector for one-line acceptance verdicts, echoed after the run."""
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
