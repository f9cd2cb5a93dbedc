import numpy as np
import pytest

from nsdarcy import ModelParams, manufactured_problem


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def mms(params):
    return manufactured_problem(params)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture()
def direct_solves(monkeypatch):
    """The factor of every DirectFactor.solve call, in call order."""
    from nsdarcy.sparse import DirectFactor

    factors, orig = [], DirectFactor.solve

    def solve(self, b):
        factors.append(self)
        return orig(self, b)
    monkeypatch.setattr(DirectFactor, "solve", solve)
    return factors
