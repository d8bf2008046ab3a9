"""The sparse small quantum product against the dense accumulation it
replaced, and the engine work behind the presentation check.

Random sparse vectors at c_max 3 are multiplied both ways, with the
quantum table and with the cup table.  Coordinates with a high q3-order
are drawn often, so that many pairs of nonzero coordinates have a series
product that truncates to zero: the product must still ask the table for
those pairs, in the same order as the reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhilb import chow
from qhilb.coeffring import QSeries
from qhilb.gw_engine import Engine
from qhilb.quantum import QCohVector, SmallQuantum, verify_all
from reference_quantum import reference_bilinear

C_MAX = 3

coeffs = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
low = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, C_MAX))
high = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(2, C_MAX))
series = st.builds(QSeries, st.dictionaries(st.one_of(low, high, high), coeffs, max_size=3),
                   st.just(C_MAX))


@st.composite
def vectors(draw):
    coords = [QSeries.zero(C_MAX)] * chow.BASIS_SIZE
    for i in draw(st.lists(st.integers(0, chow.BASIS_SIZE - 1), max_size=4, unique=True)):
        coords[i] = draw(series)
    return QCohVector(coords, C_MAX)


@pytest.fixture(scope="module")
def ring():
    return SmallQuantum(Engine(c_max=C_MAX))


def recorded(table):
    calls = []

    def wrapped(i, j):
        calls.append((i, j))
        return table(i, j)
    return wrapped, calls


@given(vectors(), vectors(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bilinear_matches_dense_reference(ring, x, y, quantum):
    if quantum:
        table = ring.basis_product
    else:
        def table(i, j):
            return QCohVector.lift(chow.cup_basis(i, j), C_MAX)
    new_table, new_calls = recorded(table)
    ref_table, ref_calls = recorded(table)
    assert ring._bilinear(x, y, new_table) == reference_bilinear(x, y, ref_table)
    assert new_calls == ref_calls


def test_bilinear_asks_for_pairs_that_truncate_to_zero(ring):
    # q3^2 * q3^2 dies at c_max 3, but T4 * T4 is still derived
    q3sq = QCohVector.basis(4, C_MAX).scale(QSeries.monomial((0, 0, 2), C_MAX))
    table, calls = recorded(ring.basis_product)
    assert ring._bilinear(q3sq, q3sq, table).is_zero()
    assert calls == [(4, 4)]


# fresh engine per truncation order: (wdvv_instances, solver_instances,
# involution_hits, memo entries) once every relation has been checked.  The
# memo holds normalized keys only (273, 652, 1077, 1502, 1957, 2400 and
# 2843 entries while each key as asked was stored too).  A key the
# two-point solve of its class reduced takes the solve's expression (83,
# 157, 250, 297, 349, 399 and 449 instances while it built its instance
# a second time)
@pytest.mark.parametrize("c_max, work", [
    (0, (73, 57, 30, 114)),
    (1, (139, 99, 61, 251)),
    (2, (222, 156, 92, 396)),
    (3, (265, 186, 103, 519)),
    (4, (313, 216, 114, 651)),
    (5, (359, 246, 125, 785)),
    (6, (405, 276, 136, 919)),
])
def test_verify_all_residuals_and_engine_work_pinned(c_max, work):
    # the product derives the same keys, so the engine does the same work
    eng = Engine(c_max=c_max)
    residuals = verify_all(eng)
    assert sorted(residuals) == list(range(1, 18))
    assert all(r.is_zero() for r in residuals.values())
    stats = eng.stats
    assert (stats["wdvv_instances"], stats["solver_instances"], stats["involution_hits"],
            len(eng.memo)) == work
