import os
from collections import OrderedDict

import pytest

from fasmon import derive_link, mcsim, resolve_config, specfun


@pytest.fixture(scope="session")
def ref_params():
    """The reference setup, which an empty config resolves to: 20 dB source
    power, 30 dB jamming cap, -18 dB cross-link ratio, unit noise variances,
    delta 0.05, 8 ports, W = 5."""
    return resolve_config({}).params


@pytest.fixture(scope="session")
def ref_link(ref_params):
    return derive_link(ref_params)


@pytest.fixture
def empty_weight_cache(monkeypatch):
    """Empties the Marcum kernel's Poisson-weight cache; call it again to
    empty it again. The process cache is restored after the test."""
    def empty():
        monkeypatch.setattr(specfun, "_WEIGHT_CACHE", OrderedDict())
        monkeypatch.setattr(specfun, "_weight_cache_bytes", 0)
    empty()
    return empty


@pytest.fixture
def worker_cap(monkeypatch):
    """Sets the Monte Carlo worker cap; call it again to change it. The
    process is shown eight CPUs, so the cap alone sets the worker count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)

    def set_cap(workers):
        monkeypatch.setattr(mcsim, "_MAX_WORKERS", workers)
    return set_cap


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
