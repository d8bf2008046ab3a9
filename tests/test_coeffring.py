import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhilb.coeffring import (
    QSeries,
    TruncationExceeded,
    TruncationMismatch,
    accumulate_product,
    geometric_q3,
    monomial_str,
    rat_str,
)
from reference_coeffring import RefSeries
from reference_coeffring import accumulate_product as reference_accumulate

C_MAX = 4


def mono(e1, e2, e3, coeff=1, c_max=C_MAX):
    return QSeries.monomial((e1, e2, e3), c_max, Fraction(coeff))


# -- spec examples -----------------------------------------------------------

def test_additive_inverse():
    assert (mono(1, 0, 1) + mono(1, 0, 1, -1)).is_zero()


def test_additive_identity():
    s = mono(1, 1, 2, 2)
    assert s + QSeries.zero(C_MAX) == s


def test_add_respects_truncation():
    # (q3 + q3^2) + q3^2, worked at truncation order 1, keeps only q3
    x = QSeries({(0, 0, 1): Fraction(1), (0, 0, 2): Fraction(1)}, 2)
    y = QSeries({(0, 0, 2): Fraction(1)}, 2)
    want = QSeries({(0, 0, 1): Fraction(1)}, 1)
    assert (x + y).truncate(1) == want
    assert x.truncate(1) + y.truncate(1) == want


def test_mul_monomials():
    assert mono(1, 0, 0) * mono(0, 1, 2) == mono(1, 1, 2)


def test_mul_truncates():
    one = QSeries.one(1)
    q3 = QSeries.monomial((0, 0, 1), 1)
    assert (one + q3) * (one - q3) == one  # the q3^2 cross term dies


def test_mul_absorbing_zero():
    assert (mono(2, 1, 3) * QSeries.zero(C_MAX)).is_zero()


def test_coeff_reads():
    s = mono(1, 1, 2, 2)
    assert s.coeff((1, 1, 2)) == 2
    assert s.coeff((0, 0, 0)) == 0
    t = mono(0, 0, 1, 4) + mono(0, 0, 2, 1)
    assert t.coeff((0, 0, 2)) == 1


def test_coeff_beyond_truncation_raises():
    with pytest.raises(TruncationExceeded):
        mono(0, 0, 1).coeff((0, 0, C_MAX + 1))


def test_mismatched_c_max_rejected():
    with pytest.raises(TruncationMismatch):
        QSeries.one(2) + QSeries.one(3)


def test_rendering():
    assert rat_str(Fraction(4, 9)) == "4/9"
    assert rat_str(Fraction(7)) == "7"
    assert monomial_str((1, 2, 1)) == "q1 q2^2 q3"
    assert monomial_str((0, 0, 0)) == "1"
    assert str(mono(1, 1, 2, 2)) == "2 q1 q2 q3^2"


def test_geometric_tail():
    g = geometric_q3(3)
    assert [g.coeff((0, 0, c)) for c in range(4)] == [0, 1, 1, 1]


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", True, False, None, 1j],
                         ids=["float", "integral-float", "str", "True", "False", "None", "complex"])
@pytest.mark.parametrize("make", [
    lambda x: QSeries({(0, 0, 0): x}, 2),
    lambda x: QSeries.scalar(x, 2),
    lambda x: QSeries.monomial((1, 0, 1), 2, x),
    lambda x: QSeries.one(2).scale(x),
    lambda x: QSeries.one(2) * x,
], ids=["init", "scalar", "monomial", "scale", "mul"])
def test_inexact_coefficients_refused(make, bad):
    # a float would be stored as its binary value, a string parsed and a
    # bool read as 0 or 1; the error names the coefficient
    with pytest.raises(ValueError, match="int or a Fraction, got %s" % re.escape(repr(bad))):
        make(bad)


def stored_form_faults(s):
    """The stored terms that break the form every series keeps: no zero,
    only ints and Fractions, and no Fraction with denominator 1."""
    return {m: c for m, c in s.terms.items()
            if not c or not (type(c) is int or type(c) is Fraction and c.denominator != 1)}


def test_operations_keep_exact_coefficients():
    # an integral coefficient is stored as an int, also where it comes in as
    # a Fraction or an operation on Fractions makes it; a Fraction only
    # where it is not integral
    x = QSeries({(0, 0, 0): Fraction(4, 2), (1, 0, 1): Fraction(1, 3)}, 2)
    assert x.terms == {(0, 0, 0): 2, (1, 0, 1): Fraction(1, 3)}
    assert type(x.terms[(0, 0, 0)]) is int
    tripled = x * Fraction(3)
    assert tripled.terms == {(0, 0, 0): 6, (1, 0, 1): 1}
    for s in (x, tripled, x + x, x - tripled, -x, x * x, x.scale(Fraction(3, 2)),
              QSeries.one(2), QSeries.monomial((1, 0, 1), 2), geometric_q3(2)):
        assert stored_form_faults(s) == {}, s
    assert x.scale(0).is_zero() and (x - x).terms == {}
    # an operand can be returned as it is
    zero = QSeries.zero(2)
    assert x + zero is x and zero + x is x and x - zero is x and -zero is zero
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TruncationMismatch):
            op(zero, QSeries.zero(3))


# mixed coefficients: ints, Fractions that are not integral and Fractions
# that are, which every series must store as ints
mixed_coeffs = st.one_of(st.integers(-4, 4),
                         st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)),
                         st.integers(-3, 3).map(lambda n: Fraction(2 * n, 2)))
mixed_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                        st.integers(0, C_MAX)), mixed_coeffs, max_size=4)


@given(mixed_terms, mixed_terms, mixed_terms, mixed_coeffs)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mixed_coefficients_match_fraction_reference(tx, ty, acc, k):
    x, y = QSeries(tx, C_MAX), QSeries(ty, C_MAX)
    rx, ry = RefSeries(tx, C_MAX), RefSeries(ty, C_MAX)
    pairs = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry), (-x, -rx),
             (x * y, rx * ry), (x.scale(k), rx.scale(k)), (x * k, rx * k),
             ((x * y - x) * (y + x.scale(k)), (rx * ry - rx) * (ry + rx.scale(k)))]
    for new, ref in pairs:
        assert new.terms == ref.terms and new.c_max == ref.c_max
        assert str(new) == str(ref)
        assert stored_form_faults(new) == {}, new
    new_acc, ref_acc = dict(acc), dict(acc)
    accumulate_product(new_acc, x, y)
    reference_accumulate(ref_acc, rx, ry)
    assert new_acc == ref_acc


# -- ring axioms as property tests -------------------------------------------

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, C_MAX))


@st.composite
def series(draw, c_max=C_MAX):
    terms = draw(st.dictionaries(monomials, coeffs, max_size=4))
    return QSeries(terms, c_max)


@given(series(), series(), series())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x * QSeries.one(C_MAX) == x


@given(series())
@settings(max_examples=60, deadline=None)
def test_lowest_terms_and_no_zeros(x):
    for m, c in x.terms.items():
        assert c != 0
        assert c.denominator > 0
        assert Fraction(c.numerator, c.denominator) == c


@given(series(), series())
@settings(max_examples=60, deadline=None)
def test_truncation_is_ring_map(x, y):
    # truncating inputs then multiplying equals multiplying then truncating
    for lower in range(C_MAX):
        lhs = x.truncate(lower) * y.truncate(lower)
        rhs = (x * y).truncate(lower)
        assert lhs == rhs
