import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qhilb import chow
from qhilb.chow import (
    CODIM,
    GRADED_DIMS,
    CohVector,
    UsageError,
    cup,
    divisor_degree,
    integrate,
    involution,
    normal_form,
    pairing,
    parse_cup_table,
)

from oracle_blowup import oracle_cup_table

DATA = Path(__file__).parent / "data"


def T(i):
    return CohVector.basis(i)


# -- basis bookkeeping -------------------------------------------------------

def test_graded_dimensions():
    for k, want in enumerate(GRADED_DIMS):
        assert sum(1 for c in CODIM if c == k) == want
    assert len(CODIM) == 14


# -- normal form -------------------------------------------------------------

def test_normal_form_named_products():
    assert normal_form([1, 2]) == T(5)
    assert normal_form([4, 4]) == T(13)
    assert normal_form([1, 1, 1]).is_zero()
    assert normal_form([1, 4]) == T(11)
    assert normal_form([2, 4]) == T(10)
    assert normal_form([3, 4]) == T(12)


def test_normal_form_degree_four_integral():
    # the product T1 T2 T3 T3 integrates to 2
    assert integrate(normal_form([1, 2, 3, 3])) == 2


def test_normal_form_degree_overflow():
    assert normal_form([1, 1, 2, 2, 3]).is_zero()
    assert normal_form([4, 4, 4]).is_zero()


def test_irreducible_monomials_are_the_basis_words():
    # normal_form reads coordinates off the monomials no rule fits, so
    # those must be exactly the generator words of the basis classes
    irreducible = {
        m for m in itertools.product(range(5), range(5), range(5), range(3))
        if chow._deg(m) <= 4 and not any(chow._fits(rule[1], m) for rule in chow.REWRITE_RULES)
    }
    words = {tuple(w.count(g) for g in (1, 2, 3, 4)) for w in chow.GENERATOR_WORDS}
    assert irreducible == words
    assert len(words) == 14


def test_normal_form_rejects_bad_generator():
    with pytest.raises(UsageError):
        normal_form([5])


def test_normal_form_confluence_randomized():
    rng = random.Random(20240817)
    monomials = [
        [1, 1, 2], [1, 2, 3], [3, 3], [3, 3, 3], [1, 2, 3, 3],
        [1, 1, 2, 2], [2, 3, 4], [1, 3, 4], [3, 3, 4], [1, 1, 3],
        [2, 2, 3], [3, 3, 3, 3], [1, 2, 4], [4, 4],
    ]
    for mono in monomials:
        reference = normal_form(mono)
        for _ in range(8):
            assert normal_form(mono, rng=rng) == reference, mono


# -- cup product -------------------------------------------------------------

def test_cup_unit():
    for i in range(14):
        assert cup(T(0), T(i)) == T(i)


def test_cup_examples():
    assert cup(T(1), T(3)) == T(8)
    assert cup(T(6), T(7)) == T(13).scale(2)
    assert cup(T(4), T(4)) == T(13)


def test_cup_bilinear_and_graded():
    x = T(1) + T(2).scale(3)
    y = T(3).scale(Fraction(1, 2))
    z = cup(x, y)
    assert z == cup(T(1), y) + cup(T(2), y).scale(3)
    assert z.is_homogeneous(2)


def test_cup_table_matches_blowup_oracle_golden():
    golden = parse_cup_table((DATA / "cup_table_blowup.golden").read_text().splitlines())
    assert len(golden) == 196
    for (i, j), vec in golden.items():
        assert chow.cup_basis(i, j) == vec, (i, j)


def test_blowup_oracle_regenerates_golden():
    golden = parse_cup_table((DATA / "cup_table_blowup.golden").read_text().splitlines())
    live = oracle_cup_table()
    for key, coords in live.items():
        assert golden[key] == CohVector(coords), key


def test_cup_table_lines_round_trip():
    lines = chow.cup_table_lines()
    parsed = parse_cup_table(lines)
    assert len(parsed) == 196
    for (i, j), vec in parsed.items():
        assert vec == chow.cup_basis(i, j)


# -- integration and pairing -------------------------------------------------

def test_integrate_examples():
    assert integrate(T(13)) == 1
    assert integrate(cup(T(4), T(4))) == 1
    assert integrate(cup(T(3), T(10))) == 1
    assert integrate(T(5)) == 0


def test_curve_divisor_pairing_table():
    # the documented 3x3 matrix is exactly what the built ring realizes
    for e in range(3):
        for d in range(3):
            got = integrate(cup(T(10 + e), T(d + 1)))
            assert got == chow.CURVE_DIVISOR_PAIRING[e][d]


def test_pairing_entries():
    g = pairing().g
    assert g[1][10] == 1 and g[1][11] == 0 and g[1][12] == 1
    assert g[2][10] == 0 and g[2][11] == 1 and g[2][12] == 1
    assert g[3][10] == 1 and g[3][11] == 1 and g[3][12] == 1
    assert g[0][13] == 1
    assert g[5][5] == 2


def test_pairing_structure():
    p = pairing()
    for i in range(14):
        for j in range(14):
            assert p.g[i][j] == p.g[j][i]
            if CODIM[i] + CODIM[j] != 4:
                assert p.g[i][j] == 0
    # exact inverse
    for i in range(14):
        for j in range(14):
            acc = sum(p.g[i][k] * p.g_inv[k][j] for k in range(14))
            assert acc == (1 if i == j else 0)


def test_dual_groups_are_the_nonzero_inverse_entries():
    g_inv = pairing().g_inv
    want = [(e, f, g_inv[e][f]) for e in range(14) for f in range(14) if g_inv[e][f] != 0]
    got = [(e, f, w) for e, fws in chow.dual_groups() for f, w in fws]
    assert got == want
    assert [e for e, _ in chow.dual_groups()] == list(range(14))


def test_dual_basis_duality():
    duals = chow.dual_basis()
    for e in range(14):
        for g in range(14):
            assert integrate(cup(duals[e], T(g))) == (1 if e == g else 0)


# -- involution ---------------------------------------------------------------

def test_involution_action():
    assert involution(T(1)) == T(2)
    assert involution(T(12)) == T(12)
    assert involution(involution(T(10))) == T(10)


def test_involution_is_ring_automorphism():
    for i in range(14):
        for j in range(14):
            lhs = involution(cup(T(i), T(j)))
            rhs = cup(involution(T(i)), involution(T(j)))
            assert lhs == rhs, (i, j)


# -- divisor degrees -----------------------------------------------------------

def test_divisor_degrees():
    assert divisor_degree(3, (1, 0, 1)) == 1
    assert divisor_degree(1, (1, 0, 1)) == 0
    assert divisor_degree(1, (0, 0, 0)) == 0
    assert divisor_degree(2, (2, 3, 1)) == 2
    with pytest.raises(UsageError):
        divisor_degree(4, (1, 0, 0))


def test_divisor_degree_matches_q_exponents():
    from qhilb.quantum import q_of_beta

    rng = random.Random(11)
    for _ in range(50):
        beta = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
        e1, e2, e3 = q_of_beta(beta)
        assert divisor_degree(1, beta) == e1
        assert divisor_degree(2, beta) == e2
        assert divisor_degree(3, beta) == e3


# -- the memoized reduction ------------------------------------------------------

class _CountingMemo(dict):
    def __init__(self):
        super().__init__()
        self.writes = {}

    def __setitem__(self, key, value):
        self.writes[key] = self.writes.get(key, 0) + 1
        super().__setitem__(key, value)


def test_cup_table_reduces_each_exponent_vector_once(monkeypatch):
    # the 196 basis products are 65 distinct exponent vectors, and every
    # replacement the rules make is one of them: a cold table reduces
    # exactly those, each once
    memo = _CountingMemo()
    monkeypatch.setattr(chow, "_NORMAL_MEMO", memo)
    chow.cup_basis.cache_clear()
    chow._monomial_class.cache_clear()
    try:
        lines = chow.cup_table_lines()
    finally:
        chow.cup_basis.cache_clear()
        chow._monomial_class.cache_clear()
    words = {tuple(a + b for a, b in zip(chow._WORD_EXPONENTS[i], chow._WORD_EXPONENTS[j]))
             for i in range(14) for j in range(14)}
    assert len(lines) == 196 and len(words) == 65
    assert set(memo) == words
    assert set(memo.writes.values()) == {1}


def test_cup_basis_shares_one_class_per_monomial():
    for i in range(14):
        for j in range(14):
            assert chow.cup_basis(i, j) is chow.cup_basis(j, i), (i, j)
    # T1.T5 and T6.T2 are both T1^2 T2
    assert chow.cup_basis(1, 5) is chow.cup_basis(6, 2)


def test_randomized_normal_form_leaves_the_memo_alone():
    chow.cup_table_lines()
    before = dict(chow._NORMAL_MEMO)
    rng = random.Random(5)
    monomials = ([1, 2, 3, 3], [4, 4], [3, 3, 3], [3, 3, 3, 1, 2])
    assert (1, 1, 3, 0) not in before  # degree five: in no basis product
    randomized = [normal_form(mono, rng=rng) for mono in monomials for _ in range(4)]
    assert chow._NORMAL_MEMO == before
    assert randomized == [normal_form(mono) for mono in monomials for _ in range(4)]


def test_pairing_block_inverse_refuses_a_singular_block():
    with pytest.raises(chow.RingConsistencyError, match="singular"):
        chow._invert_matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_rewriting_refuses_a_non_basis_terminal(monkeypatch):
    # a monomial no rule fits must be a basis word
    monkeypatch.setattr(chow, "_NORMAL_MEMO", {})
    monkeypatch.setattr(chow, "REWRITE_RULES", chow.REWRITE_RULES[1:])  # drop sq3
    with pytest.raises(chow.RingConsistencyError, match="non-basis monomial"):
        chow.normal_form([3, 3])
