from fractions import Fraction
from pathlib import Path

import pytest

from qhilb import chow, quantum
from qhilb.chow import CODIM, IOTA, UsageError
from qhilb.coeffring import QSeries, TruncationMismatch
from qhilb.gw_engine import Engine, Unknown
from qhilb.quantum import (
    MissingInvariant,
    QCohVector,
    SmallQuantum,
    _Parser,
    _tokenize,
    gamma,
    load_relations,
    q_of_beta,
    small_product,
    verify_all,
)

C_MAX = 3
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def engine3():
    return Engine(c_max=C_MAX)


@pytest.fixture(scope="module")
def ring(engine3):
    return SmallQuantum(engine3)


@pytest.fixture(scope="module")
def engine2():
    return Engine(c_max=2)


def series(e1, e2, e3, coeff=1, c_max=C_MAX):
    return QSeries.monomial((e1, e2, e3), c_max, Fraction(coeff))


# -- the deformation monomial ---------------------------------------------------

def test_q_of_beta():
    assert q_of_beta((1, 0, 1)) == (0, 1, 1)   # first coordinate rides on q2
    assert q_of_beta((0, 0, 0)) == (0, 0, 0)
    assert q_of_beta((2, 3, 1)) == (3, 2, 1)
    with pytest.raises(UsageError):
        q_of_beta((-1, 0, 0))


@pytest.mark.parametrize("c_max", [-1, True, 2.5, 2.0, "3", None])
def test_engine_checks_c_max(c_max):
    # the engine refuses the same truncation orders when it is built, not
    # at the first query that compares against c_max
    with pytest.raises(UsageError):
        Engine(c_max=c_max)


def test_engine_accepts_c_max_zero():
    table = Engine(c_max=0).derive_two_point_table()
    assert table and all(beta[2] == 0 for beta, _ in table)


def test_small_quantum_accepts_c_max_zero():
    assert SmallQuantum(Engine(c_max=0)).c_max == 0


@pytest.mark.parametrize("call", [
    lambda eng: SmallQuantum(eng).basis_product(-1, 4),
    lambda eng: SmallQuantum(eng).basis_product(99, 1),
    lambda eng: gamma(eng, 99, 1, 1),
], ids=["product-negative", "product-too-large", "gamma-too-large"])
def test_quantum_entry_points_check_indices(call):
    # refused before the engine is asked, not deep inside it
    eng = Engine(c_max=2)
    with pytest.raises(UsageError):
        call(eng)
    assert eng.memo == {}


# -- vectors --------------------------------------------------------------------------

@pytest.mark.parametrize("coords, error", [
    ([QSeries.one(3)] * 14, TruncationMismatch),
    ([QSeries.one(2)] * 13, ValueError),
    ([QSeries.one(2)] * 13 + [Fraction(1)], ValueError),
    ([QSeries.one(2)] * 13 + [None], ValueError),
], ids=["other-c-max", "thirteen", "fraction-coordinate", "none-coordinate"])
def test_vector_checks_its_coordinates(coords, error):
    # refused where the vector is built, not at its first sum
    with pytest.raises(error):
        QCohVector(coords, 2)


@pytest.mark.parametrize("bad", [0.1, "1/3", True])
def test_vector_scale_refuses_inexact(bad):
    with pytest.raises(ValueError, match="int or a Fraction"):
        QCohVector.basis(1, 2).scale(bad)


def test_vector_scale_checks_c_max():
    v = QCohVector.basis(1, 2)
    assert v.scale(Fraction(1, 2)).coords[1].coeff((0, 0, 0)) == Fraction(1, 2)
    assert v.scale(QSeries.monomial((0, 0, 2), 2)).coords[1] == QSeries.monomial((0, 0, 2), 2)
    with pytest.raises(TruncationMismatch):
        v.scale(QSeries.one(3))
    with pytest.raises(TruncationMismatch):
        SmallQuantum(Engine(c_max=3)).product(v, v)


# -- small products ---------------------------------------------------------------

def test_product_t4_t4(ring):
    result = ring.basis_product(4, 4)
    want = QCohVector.basis(13, C_MAX) + QCohVector.basis(0, C_MAX).scale(series(1, 1, 2, 2))
    assert result == want


def test_product_unit(ring):
    for i in range(14):
        assert ring.basis_product(0, i) == QCohVector.basis(i, C_MAX)


def test_product_t1_t3(ring):
    want = QCohVector.basis(8, C_MAX) + QCohVector.basis(0, C_MAX).scale(series(1, 0, 1, 2))
    assert ring.basis_product(1, 3) == want


def test_product_reduces_to_cup_at_q_zero(ring):
    for i in range(14):
        for j in range(14):
            assert ring.basis_product(i, j).at_q_zero() == chow.cup_basis(i, j)


def test_product_commutative(ring):
    for i in range(14):
        for j in range(i, 14):
            x = QCohVector.basis(i, C_MAX)
            y = QCohVector.basis(j, C_MAX)
            assert ring.product(x, y) == ring.product(y, x)


def test_product_grading(ring):
    # deg q1 = deg q2 = 2, deg q3 = 0: every term of Ti*Tj is homogeneous
    for i in range(14):
        for j in range(14):
            result = ring.basis_product(i, j)
            for f, s in enumerate(result.coords):
                for (e1, e2, _), coeff in s.terms.items():
                    assert coeff != 0
                    assert CODIM[f] + 2 * (e1 + e2) == CODIM[i] + CODIM[j], (i, j, f)


def test_product_iota_equivariant(ring):
    def swap_series(s):
        return QSeries({(e2, e1, e3): c for (e1, e2, e3), c in s.terms.items()}, s.c_max)

    def iota_vec(v):
        return QCohVector([swap_series(v.coords[IOTA[k]]) for k in range(14)], v.c_max)

    for i in range(14):
        for j in range(14):
            lhs = iota_vec(ring.basis_product(i, j))
            rhs = ring.product(QCohVector.basis(IOTA[i], C_MAX), QCohVector.basis(IOTA[j], C_MAX))
            assert lhs == rhs, (i, j)


def test_product_associative_exhaustive(ring):
    # all 14^3 ordered triples at the working truncation
    basis = [QCohVector.basis(i, C_MAX) for i in range(14)]
    left_tables = [[ring.product(basis[i], basis[j]) for j in range(14)] for i in range(14)]
    for i in range(14):
        for j in range(14):
            for k in range(14):
                lhs = ring.product(left_tables[i][j], basis[k])
                rhs = ring.product(basis[i], left_tables[j][k])
                assert lhs == rhs, (i, j, k)


def test_code_section_example(ring):
    # the section-class product carries the full fiber tail
    t33 = ring.basis_product(3, 3)
    for c in range(1, C_MAX + 1):
        for f, want in ((5, 4), (6, 2), (7, 2), (8, -2), (9, -2)):
            assert t33.coords[f].coeff((0, 0, c)) == want
    assert t33.coords[0].coeff((1, 0, 1)) == 2
    assert t33.coords[0].coeff((0, 1, 1)) == 2


def test_missing_invariant_is_structured():
    # unseeding the fiber-class values starves the product of T3*T3
    eng = Engine(c_max=2, disabled_seed_rules=("s1s2",))
    with pytest.raises(MissingInvariant) as err:
        small_product(eng, 3, 3)
    assert err.value.insertions == (3, 3, 8)
    assert err.value.beta == (0, 0, 1)


def test_first_missing_invariant_is_pinned():
    # without the pure-T4 seed rules, T4 * T4 stops at the first
    # three-point invariant it reads in dual_groups() and class order
    eng = Engine(c_max=2, disabled_seed_rules=("s8s9",))
    with pytest.raises(MissingInvariant) as err:
        SmallQuantum(eng).basis_product(4, 4)
    reason = ("requires <T4^3>_(0,1,0) seed; pure incidence-class powers "
              "beyond exponent three are not derivable here")
    assert err.value.beta == (0, 1, 0)
    assert err.value.insertions == (4, 4, 4)
    assert err.value.reason == reason
    assert str(err.value) == "missing invariant <T4 T4 T4>_((0, 1, 0),): " + reason


def test_basis_products_match_frozen_golden(engine):
    ring = SmallQuantum(engine)
    names = chow.BASIS_NAMES
    lines = ["%s * %s = %s" % (names[i], names[j], ring.basis_product(i, j))
             for i in range(chow.BASIS_SIZE) for j in range(i, chow.BASIS_SIZE)]
    text = (DATA / "basis_products_c4.golden").read_text()
    header = "".join(line + "\n" for line in text.splitlines() if line.startswith("#"))
    assert len(lines) == 105
    assert header + "".join(line + "\n" for line in lines) == text


def test_basis_product_fraction_constructions_pinned(fraction_count):
    # the product sums its invariants in integers (weights D g^{ef}) and
    # builds each quantum coefficient once, a Fraction only where D does not
    # divide the sum: 1,031 -> 51 once integral coefficients became ints
    # (1,004 of the 1,031 were coefficients); the integral fibre-class seeds
    # are ints (1,087 while they were Fractions, 1,088 once interior rows
    # were looked up whole, 1,068 while the solver's rows were dense lists,
    # whose row operations built two Fractions for each zero entry that a
    # non-integral factor met)
    def all_products():
        ring = SmallQuantum(Engine(c_max=2))
        for i in range(chow.BASIS_SIZE):
            for j in range(i, chow.BASIS_SIZE):
                ring.basis_product(i, j)

    all_products()  # fill the module caches
    _, calls = fraction_count(all_products)
    assert calls == 51  # 11,465 when basis_product summed Fractions


# -- relations ---------------------------------------------------------------------

def test_relation_file_parses():
    rels = load_relations()
    assert [r.id for r in rels] == list(range(1, 18))
    assert sum(1 for r in rels if r.text.startswith("iota[")) == 6


def test_relation_file_parsed_once(cold_caches, monkeypatch):
    # every call hands out a fresh list of the same immutable relations
    parsed = []
    tokenize = quantum._tokenize
    monkeypatch.setattr(quantum, "_tokenize", lambda text: parsed.append(text) or tokenize(text))
    load_relations().clear()
    rels = load_relations()
    assert len(parsed) == 11 and len(rels) == 17
    assert rels[0] is load_relations()[0]
    with pytest.raises(AttributeError):
        rels[0].note = "shared by every caller"


def test_parser_rejects_garbage():
    with pytest.raises(UsageError):
        _Parser(_tokenize("T1 *")).parse()
    with pytest.raises(UsageError):
        _Parser(_tokenize("T99")).parse()


def test_all_relations_at_working_truncation(engine3):
    residuals = verify_all(engine3)
    assert len(residuals) == 17
    for rel_id, res in residuals.items():
        assert res.is_zero(), (rel_id, str(res))


def test_relations_classical_check():
    residuals = verify_all(Engine(c_max=0))
    assert len(residuals) == 17
    for rel_id, res in residuals.items():
        assert res.is_zero(), rel_id


def test_single_relation_verify(engine2, engine3):
    residuals = verify_all(engine2, [6])
    assert list(residuals) == [6] and residuals[6].is_zero()
    assert verify_all(engine3, [9])[9].is_zero()


@pytest.mark.parametrize("ids", [[True], [0], [18], [1, 2.0], ["3"], 5])
def test_verify_all_rejects_bad_ids(engine2, ids):
    # relation ids are ints 1..17 in a sequence; True is not relation 1
    with pytest.raises(UsageError):
        verify_all(engine2, ids)


# -- gamma series --------------------------------------------------------------------

def test_gamma_vanishes_with_unit_index(engine2):
    assert gamma(engine2, 0, 3, 3, y_truncation=1).terms == {}


@pytest.mark.parametrize("y_truncation", [-1, 1.5, True, "2", None])
def test_gamma_rejects_bad_y_truncation(engine2, y_truncation):
    # a non-negative int, and not a bool: True must not run as 1
    with pytest.raises(UsageError):
        gamma(engine2, 1, 1, 8, y_truncation=y_truncation)


def test_gamma_three_point_part(engine2):
    # the n = 0 coefficients are the plain three-point invariants
    g = gamma(engine2, 3, 3, 8, y_truncation=0)
    for c in (1, 2):
        assert g.terms[((0, 0, c), (0,) * 10)] == engine2.invariant((0, 0, c), (3, 3, 8))
    assert ((0, 0, 1), (0,) * 10) in g.terms


def test_gamma_y_coefficient_matches_recursion(engine2):
    # the first-order y13 coefficient is the four-point invariant
    g = gamma(engine2, 4, 4, 8, y_truncation=1)
    ydeg = tuple(1 if t == 9 else 0 for t in range(10))  # y13 slot
    for (beta, deg), value in g.terms.items():
        if deg == ydeg:
            direct = engine2.invariant(beta, (4, 4, 8, 13))
            assert value == direct


def test_gamma_flags_unknowns():
    eng = Engine(c_max=2)
    g = gamma(eng, 4, 4, 5, y_truncation=2)
    flagged = g.flagged_terms()
    known = g.known_terms()
    assert all(isinstance(v, Unknown) for v in flagged.values())
    for key in known:
        assert key not in flagged


def test_gamma_flags_pure_t4_powers():
    # the y4^2 term of gamma(T4, T4, T4) reads <T4^5>, which no seed gives
    flagged = gamma(Engine(c_max=2), 4, 4, 4, y_truncation=2).flagged_terms()
    assert sorted(flagged) == [(beta, (2,) + (0,) * 9) for beta in [
        (0, 2, 0), (0, 2, 1), (0, 2, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2),
        (2, 0, 0), (2, 0, 1), (2, 0, 2)]]
    assert flagged[((1, 1, 1), (2,) + (0,) * 9)] == Unknown(
        "requires <T4^5>_(1,1,1) seed; pure incidence-class powers "
        "beyond exponent three are not derivable here")


def test_gamma_normalization(engine2):
    # a doubled insertion divides by 2! = 2
    g = gamma(engine2, 3, 3, 13, y_truncation=2)
    ydeg = tuple(2 if t == 0 else 0 for t in range(10))  # y4^2 slot
    for (beta, deg), value in g.terms.items():
        if deg == ydeg and not isinstance(value, Unknown):
            direct = engine2.invariant(beta, (3, 3, 13, 4, 4))
            assert value == Fraction(direct, 2)


def _relation_leaves(node):
    if node[0] in ("num", "q", "g3", "T"):
        yield node
    else:
        for child in node[1:]:
            if isinstance(child, tuple):
                yield from _relation_leaves(child)


def test_relation_leaves_built_once_per_verify(engine2, monkeypatch):
    # each distinct constant leaf of the relation trees (a number, a q_i,
    # G3, a basis class) is built once per verify_all, through the checked
    # constructors, however often the trees repeat it
    built = []
    leaf = quantum._Evaluator._leaf
    monkeypatch.setattr(quantum._Evaluator, "_leaf",
                        lambda self, node: built.append(node) or leaf(self, node))
    verify_all(engine2)
    occurrences = [n for rel in load_relations() for n in _relation_leaves(rel.ast)]
    assert sorted(map(repr, built)) == sorted(set(map(repr, occurrences)))
    assert len(occurrences) > 2 * len(built)
