from fractions import Fraction

import pytest

from qhilb import gw_engine, quantum
from qhilb.gw_engine import Engine


@pytest.fixture(scope="session")
def engine():
    """Shared default-config engine; memoization amortizes across tests."""
    return Engine(c_max=4)


@pytest.fixture(scope="session")
def engine_bidegree():
    return Engine(c_max=4, enable_bidegree_vanishing=True)


@pytest.fixture
def fraction_count(monkeypatch):
    """fraction_count(fn) runs fn() and returns (its result, the number of
    Fractions built meanwhile)."""
    def run(fn):
        calls = [0]
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        try:
            result = fn()
        finally:
            monkeypatch.undo()
        return result, calls[0]
    return run


@pytest.fixture
def linexpr_count(monkeypatch):
    """linexpr_count(fn) runs fn() and returns (its result, the number of
    ``gw_engine.LinExpr`` objects built meanwhile)."""
    def run(fn):
        calls = [0]
        init = gw_engine.LinExpr.__init__

        def counting(self, *args, **kwargs):
            calls[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(gw_engine.LinExpr, "__init__", counting)
        try:
            result = fn()
        finally:
            monkeypatch.undo()
        return result, calls[0]
    return run


@pytest.fixture
def cold_caches():
    """Empty every module-level cache of ``qhilb.gw_engine`` and
    ``qhilb.quantum`` (the plans, the compiled shapes, the solver catalogs
    and the parsed relations), so that a test counting cache misses and
    hits reads the same numbers whichever tests ran before it."""
    for module in (gw_engine, quantum):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    gw_engine._CATALOGS.clear()
