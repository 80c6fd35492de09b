from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from fockthermo import BathParams, rates
from fockthermo.selfcheck import run_selfcheck


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


@pytest.fixture(scope="session")
def fresh_python():
    """Run a snippet in a new interpreter that imports fockthermo from this
    checkout, and return its stdout. What a snippet finds in ``sys.modules``
    is its own: this process has scipy loaded already."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
