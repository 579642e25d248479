import importlib

import pytest

from toricgit import linalg
from toricgit.checks import builtin_corpus

LAYERS = ("linalg", "lp", "cones", "fans", "cox", "vgit", "checks", "cli")


@pytest.fixture(scope="session")
def corpus():
    return builtin_corpus()


@pytest.fixture()
def inverse_raises(monkeypatch):
    """linalg.scaled_inverse wrapped wherever a layer imported it: the list
    holds the matrices of the calls that raised."""
    raised = []
    real = linalg.scaled_inverse

    def recording(rows):
        try:
            return real(rows)
        except ValueError:
            raised.append(rows)
            raise

    for layer in LAYERS:
        module = importlib.import_module(f"toricgit.{layer}")
        if vars(module).get("scaled_inverse") is real:
            monkeypatch.setattr(module, "scaled_inverse", recording)
    return raised
