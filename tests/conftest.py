import json

import pytest

from powersemi import cli, enumerate_semigroups


@pytest.fixture(scope="session")
def catalog():
    """Catalog entries for orders 1..4, shared across the suite."""
    return {n: enumerate_semigroups(n) for n in (1, 2, 3, 4)}


@pytest.fixture(autouse=True)
def reports_match_the_python_encoder(monkeypatch):
    """Every report the CLI writes in-process must be the bytes that
    json.dumps(..., indent=2) writes; checked without assert, so the
    check holds under python -O."""
    encode = cli._indented_json

    def checked(obj):
        text = encode(obj)
        if text != json.dumps(obj, indent=2):
            raise AssertionError("report differs from json.dumps(indent=2)")
        return text

    monkeypatch.setattr(cli, "_indented_json", checked)
