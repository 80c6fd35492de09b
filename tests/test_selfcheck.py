"""The ``validate`` registry as pytest cases: one case per registered check,
all fed by the session's single run of the registry."""

from __future__ import annotations

import pytest

from fockthermo.selfcheck import registered_checks


@pytest.mark.parametrize(
    "group, name", [pytest.param(g, n, id=f"{g}.{n}") for g, n in registered_checks()]
)
def test_registered_check(group, name, selfcheck_run):
    results, _ = selfcheck_run
    (result,) = [r for r in results if (r.group, r.name) == (group, name)]
    assert result.passed, result.detail
