"""The benchmark's tracer wraps program names by string; a refactor that
renames or deletes one silently zeroes that layer's metrics. Every site
must resolve, apart from the two that the benchmark still has to retire."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Names removed before the benchmark was updated; it still lists them.
STALE = {("fockthermo.sweep", "qfi_point"), ("fockthermo.dynamics", "_evolve_rk4")}


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer, tracer.SITES


_TRACER, _SITES = _sites()
_LIVE = [site for site in _SITES if (site[0], site[1]) not in STALE]


@pytest.mark.parametrize("owner, attr, name", _LIVE, ids=[f"{o}.{a}" for o, a, _ in _LIVE])
def test_tracer_site_resolves(owner, attr, name):
    assert callable(getattr(_TRACER._owner(owner), attr, None)), f"{name}: {owner}.{attr} is gone"


def test_stale_sites_are_still_listed_and_still_gone():
    # once the benchmark drops them, drop them from STALE too
    assert STALE <= {(owner, attr) for owner, attr, _ in _SITES}
    for owner, attr in STALE:
        assert getattr(_TRACER._owner(owner), attr, None) is None
