from __future__ import annotations

import fockthermo


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from fockthermo import *", namespace)
    assert set(fockthermo.__all__) <= namespace.keys()


def test_retired_bound_types_are_gone():
    # the closed forms return floats; short_time_valid gives the validity flag
    retired = {"BoundResult", "BoundKind", "EnqfiResult", "enqfi"}
    assert not retired & set(fockthermo.__all__)
    assert not any(hasattr(fockthermo, name) for name in retired)
