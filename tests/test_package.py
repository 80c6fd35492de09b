from __future__ import annotations

import fockthermo


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from fockthermo import *", namespace)
    assert set(fockthermo.__all__) <= namespace.keys()
