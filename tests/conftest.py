from __future__ import annotations

import time

import pytest

from fockthermo import BathParams, rates
from fockthermo.dynamics import PROPAGATORS
from fockthermo.selfcheck import run_selfcheck


@pytest.fixture(autouse=True)
def empty_propagator_cache():
    """Every test starts with no propagator kept, so the exponentials it
    counts do not depend on the tests that ran before it."""
    PROPAGATORS.clear()


@pytest.fixture(scope="session")
def fig_bath() -> BathParams:
    """Reference regime: omega=1, T=0.5, gamma=0.1, g=0.05, markovian."""
    return BathParams()


@pytest.fixture(scope="session")
def fig_rates(fig_bath):
    return rates(fig_bath)


@pytest.fixture(scope="session")
def selfcheck_run():
    """The one run of the ``validate`` registry that every test reporting on
    it shares: (results, seconds taken)."""
    started = time.monotonic()
    results = run_selfcheck()
    return results, time.monotonic() - started
