"""The ``validate`` registry as pytest cases: one case per registered check,
all fed by the session's single run of the registry."""

from __future__ import annotations

import pytest
from test_acceptance import CRITERION_CHECKS

from fockthermo.selfcheck import registered_checks


@pytest.mark.parametrize(
    "group, name", [pytest.param(g, n, id=f"{g}.{n}") for g, n in registered_checks()]
)
def test_registered_check(group, name, selfcheck_run):
    results, _ = selfcheck_run
    (result,) = [r for r in results if (r.group, r.name) == (group, name)]
    assert result.passed, result.detail


def test_registered_names_are_unique():
    checks = registered_checks()
    assert len(set(checks)) == len(checks), sorted(c for c in checks if checks.count(c) > 1)


@pytest.mark.parametrize("criterion", sorted(CRITERION_CHECKS))
def test_acceptance_criterion_reports_a_registered_check(criterion):
    group, name = CRITERION_CHECKS[criterion]
    assert (group, name) in registered_checks(), (
        f"criterion {criterion} reports {group}.{name}, which is not registered")
