import gc
import itertools
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhilb.chow import (
    BASIS_SIZE,
    CODIM,
    CohVector,
    UsageError,
    cup_basis,
    divisor_degree,
    dual_groups,
    pairing,
    scaled_dual_groups,
)
from qhilb.coeffring import rat_str
from qhilb.gw_engine import (
    _EMPTY_ROW,
    _SEED_RULES,
    FACTORIZATIONS,
    ConsistencyError,
    Engine,
    LinExpr,
    SeedTable,
    Unknown,
    _boundary_terms,
    _catalog_source,
    _Context,
    _contract,
    _exact,
    _instance_catalog,
    _interior_plan,
    _normal_plan,
    _pattern,
    _row_mask,
    _row_plan,
    _side_plan,
    dimension_check,
    dimension_classes,
    expected_dim,
    iota_beta,
    iota_insertions,
    splittings,
    val_mul,
)
from qhilb.hyperelliptic import HyperellipticQuery, count_table, forward_invariants
from qhilb.quantum import SmallQuantum, verify_all

DATA = Path(__file__).parent / "data"


# -- factorizations through a divisor -------------------------------------------

def test_factorizations_hold_in_the_cup_table():
    # the divisor-axiom peels trust gamma = s * (alpha cup alpha1)
    for gamma, (s, alpha, alpha1) in FACTORIZATIONS.items():
        assert CODIM[alpha1] == 1, gamma
        assert cup_basis(alpha, alpha1).scale(s) == CohVector.basis(gamma), gamma


# -- dimension axiom ----------------------------------------------------------

def test_dimension_check_examples():
    assert dimension_check((1, 0, 1), (13,))
    for c in range(6):
        assert dimension_check((0, 0, c), (8,))
    assert not dimension_check((1, 0, 0), (4, 4))


def test_dimension_classes_match_brute_force():
    # every class of the box with a + b <= 6 passing dimension_check, for
    # every insertion tuple of length 1..4 (a + b never exceeds 5 there)
    box = [(a, b, c) for a in range(7) for b in range(7 - a) for c in range(4)]
    for n in range(1, 5):
        for ins in itertools.combinations_with_replacement(range(14), n):
            for c_max in (0, 3):
                want = sorted(
                    (beta for beta in box
                     if beta != (0, 0, 0) and beta[2] <= c_max and dimension_check(beta, ins)),
                    key=lambda beta: (beta[0], beta[2]))
                assert dimension_classes(ins, c_max) == want, (ins, c_max)


def test_dimension_axiom_randomized(engine):
    rng = random.Random(99)
    zeros = 0
    for _ in range(300):
        beta = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        if beta == (0, 0, 0):
            continue
        ins = sorted(rng.randint(1, 13) for _ in range(rng.randint(1, 4)))
        if not dimension_check(beta, ins):
            assert engine.invariant(beta, ins) == 0
            zeros += 1
    assert zeros > 200  # the random keys really did exercise the axiom


# -- seeds ---------------------------------------------------------------------

def test_fiber_class_seeds(engine):
    for c in range(1, 5):
        assert engine.invariant((0, 0, c), [8]) == Fraction(4, c * c)
        assert engine.invariant((0, 0, c), [9]) == Fraction(4, c * c)
    assert engine.invariant((0, 0, 2), [4]) == 0
    assert engine.invariant((0, 0, 3), [5]) == 0
    assert engine.invariant((0, 0, 1), [6]) == 0
    assert engine.invariant((0, 0, 1), [7]) == 0


def test_section_class_seeds(engine):
    assert engine.invariant((1, 0, 1), [13]) == 2
    assert engine.invariant((0, 1, 1), [13]) == 2
    assert engine.invariant((1, 0, 2), [13]) == 0
    assert engine.invariant((1, 0, 1), [4, 10]) == 1
    assert engine.invariant((1, 0, 1), [4, 11]) == 0
    assert engine.invariant((1, 0, 1), [4, 12]) == 1
    assert engine.invariant((0, 1, 1), [4, 11]) == 1


def test_worked_two_point_seeds(engine):
    assert [engine.invariant((0, 1, c), [11, 6]) for c in (0, 1, 2)] == [1, 2, 1]
    assert [engine.invariant((1, 0, c), [10, 7]) for c in (0, 1, 2)] == [1, 2, 1]


def test_balanced_point_seeds(engine):
    for e in (10, 11, 12):
        assert engine.invariant((1, 1, 1), [13, e]) == 1


def test_seed_table_example(engine):
    assert engine.invariant((1, 0, 1), [6, 10]) == 0
    assert engine.invariant((0, 0, 2), [8]) == 1


# -- the invariant API ----------------------------------------------------------

def test_invariant_examples(engine):
    assert engine.invariant((1, 0, 1), [13]) == 2
    assert engine.invariant((1, 0, 0), [1, 13]) == 0  # dimension axiom
    v = engine.invariant((3, 2, 2), [4] * 11)
    assert isinstance(v, Unknown)
    assert "T4^11" in v.reason
    # the literal spec example is dimension-incompatible, hence exactly zero
    assert engine.invariant((0, 1, 1), [4, 4, 4, 12]) == 0


def test_invariant_rejects_bad_beta(engine):
    # not three non-negative ints, not all zero: (1.7, 0, 1) and ('1', 0, 1)
    # must not be read as (1, 0, 1), and 5 and None are not sequences
    for method in (engine.invariant, engine.provenance_of):
        for beta in [(0, 0, 0), (-1, 0, 1), (1.7, 0, 1), ("1", 0, 1), (True, 0, 1), (1, 0),
                     5, None]:
            with pytest.raises(UsageError):
                method(beta, [13])


@pytest.mark.parametrize("insertions", [[-1, 13], [13.7], [99], [True], [13.0], ["13"], 13, None])
def test_invariant_rejects_bad_insertions(engine, insertions):
    # neither a CohVector nor an integer basis index in 0..13, or not a
    # sequence of them
    for method in (engine.invariant, engine.provenance_of):
        with pytest.raises(UsageError):
            method((1, 0, 1), insertions)


@pytest.mark.parametrize("corners, extra, beta", [
    ((-1, 13, 1, 10), (), (1, 1, 1)),  # -1 would read the point class
    ((99, 13, 1, 10), (), (1, 1, 1)),
    ((3, 13, 1, 10), (), (1, -1, 1)),
    ((3, 13, 1, 10), (), (1.5, 1, 1)),
    ((3, 13, 1, 10), (-1,), (1, 1, 1)),
    ((3, 13, 1, 10), (14,), (1, 1, 1)),
    ((1, 1, 2, 11), 5, (0, 1, 1)),  # extra is not a sequence
    ((1, 1, 2, 11), None, (0, 1, 1)),
    ((1, 1, 2, 11), (), 5),  # beta is not a sequence
])
def test_wdvv_surface_rejects_bad_indices(engine, corners, extra, beta):
    # checked like invariant's arguments, before any instance is built
    for method in (engine.wdvv_residual, engine.wdvv_instance):
        with pytest.raises(UsageError):
            method(*corners, extra, beta)


def test_provenance_of_wants_basis_indices(engine):
    assert engine.invariant((1, 0, 1), [CohVector.basis(13)]) == 2
    with pytest.raises(UsageError):
        engine.provenance_of((1, 0, 1), [CohVector.basis(13)])


def test_fundamental_class_insertion_vanishes(engine):
    assert engine.invariant((1, 0, 1), [0, 13]) == 0


def test_permutation_invariance(engine):
    rng = random.Random(5)
    keys = [((1, 1, 1), [13, 4, 8]), ((0, 1, 1), [5, 11]), ((1, 1, 2), [4, 4, 13])]
    for beta, ins in keys:
        reference = engine.invariant(beta, ins)
        for _ in range(5):
            shuffled = ins[:]
            rng.shuffle(shuffled)
            assert engine.invariant(beta, shuffled) == reference


def test_multilinearity(engine):
    rng = random.Random(6)
    lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    x = CohVector.basis(8)
    y = CohVector.basis(9)
    combo = x + y.scale(lam)
    lhs = engine.invariant((0, 0, 2), [combo])
    rhs = engine.invariant((0, 0, 2), [x]) + lam * engine.invariant((0, 0, 2), [y])
    assert lhs == rhs


def test_unknown_term_propagates_through_multilinear_invariant():
    eng = Engine(c_max=2)
    mixed = CohVector.basis(4) + CohVector.basis(5)
    v = eng.invariant((0, 2, 0), [4, 4, 4, 4, mixed])
    assert isinstance(v, Unknown)
    assert v == eng.invariant((0, 2, 0), [4] * 5)
    # the known term after the Unknown one is still evaluated
    assert eng.memo[((0, 2, 0), (4, 4, 4, 4, 5))] == 0


def test_divisor_elimination(engine):
    # a three-point invariant with a divisor insertion factors through
    # the divisor degree on the class
    v3 = engine.invariant((0, 0, 2), [3, 3, 8])
    v1 = engine.invariant((0, 0, 2), [8])
    assert v3 == 4 * v1  # (degree of T3 on (0,0,2))^2 = 4


def test_unknown_arithmetic():
    u = Unknown("nope")
    assert val_mul(Fraction(0), u) == 0
    assert val_mul(0, u) == 0
    assert val_mul(u, 0) == 0
    assert isinstance(val_mul(Fraction(2), u), Unknown)


def test_unknowns_compare_by_reason():
    a, b = Unknown("requires <T4^5>_(1,1,1) seed"), Unknown("requires <T4^5>_(1,1,1) seed")
    other = Unknown("requires <T4^5>_(1,1,2) seed")
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2
    assert a != Fraction(0) and Fraction(0) != a


# -- recursion cross-checks -------------------------------------------------------

def _solve_target_from_instance(engine, key, corners, extra):
    """Independent extraction of one invariant from one associativity
    instance: everything else evaluated by the engine."""
    beta = key[0]
    ctx = _Context()
    ctx.targets.add(key)
    rel = engine._instance_expr(corners, tuple(extra), beta, ctx)
    assert rel.poison is None
    coeff = rel.coeffs.pop(key)
    assert not rel.coeffs
    return -rel.const / coeff


def test_recursion_agrees_with_independent_instances(engine):
    # <T4 T4 T4 T12>_(1,1,1): the recursion's value must satisfy every
    # other associativity instance that pins it linearly; these two route
    # through different cup factorizations of T12 than the engine's own
    key = ((1, 1, 1), (4, 4, 4, 12))
    value = engine.invariant(*key)
    assert not isinstance(value, Unknown)
    for corners, extra in [
        ((4, 9, 4, 1), (4,)),  # T9.T1 = 2 T12 appears on the swapped side
        ((4, 8, 4, 2), (4,)),  # T8.T2 = 2 T12 likewise
    ]:
        assert _solve_target_from_instance(engine, key, corners, extra) == value


def test_three_point_table_example(engine):
    # <T4 T4 T13> is supported exactly on the class (1,1,2) with value 2
    vals = {c: engine.invariant((1, 1, c), [4, 4, 13]) for c in range(4)}
    assert vals == {0: 0, 1: 0, 2: 2, 3: 0}
    assert engine.invariant((2, 0, 2), [4, 4, 13]) == 0


# -- WDVV surface ------------------------------------------------------------------

def test_wdvv_residuals_held_out(engine):
    rng = random.Random(2718)
    checked = 0
    for _ in range(120):
        beta = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        if beta == (0, 0, 0):
            continue
        i, k = rng.randint(1, 4), rng.randint(1, 4)
        j, l = rng.randint(1, 13), rng.randint(1, 13)
        if j == k:
            continue
        r = engine.wdvv_residual(i, j, k, l, (), beta)
        if isinstance(r, Unknown):
            continue
        assert r == 0, (i, j, k, l, beta)
        checked += 1
    assert checked >= 80


def test_exceeds_truncation_reason():
    eng = Engine(c_max=2)
    v = eng.invariant((1, 1, 7), [10, 13])  # beyond the truncation, unseeded
    assert isinstance(v, Unknown)
    assert "exceeds c_max" in v.reason


def test_wdvv_instance_is_satisfied_by_derived_table(engine):
    # the public relation object evaluates to zero on the derived values
    engine.derive_two_point_table()
    for corners, beta in [((1, 1, 2, 11), (0, 1, 1)), ((1, 3, 2, 10), (1, 0, 1)),
                          ((3, 13, 1, 10), (1, 1, 2))]:
        rel = engine.wdvv_instance(*corners, (), beta)
        assert rel.poison is None
        total = rel.const
        for key, coeff in rel.coeffs.items():
            value = engine.invariant(key[0], list(key[1]))
            assert not isinstance(value, Unknown)
            total += coeff * value
        assert total == 0, (corners, beta)


def test_wdvv_instance_trivial(engine):
    # dimension-unbalanced corners at a class with no splitting: empty relation
    rel = engine.wdvv_instance(1, 5, 2, 5, (), (0, 0, 1))
    assert rel.const == 0 and not rel.coeffs and rel.poison is None


def test_wdvv_instance_consistent_with_point_seeds(engine):
    # an instance at (1,1,1) touching <T13 Te> closes exactly on the seeds
    assert engine.wdvv_residual(3, 13, 1, 10, (), (1, 1, 1)) == 0
    assert engine.wdvv_residual(1, 13, 2, 12, (), (1, 1, 1)) == 0


# -- the two-point table -------------------------------------------------------------

def _parse_golden(path):
    table = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        beta_s, ins_s, val_s, _ = (p.strip() for p in line.split("|"))
        beta = tuple(int(t) for t in beta_s.split(","))
        ins = tuple(int(t) for t in ins_s.split())
        table[(beta, ins)] = Fraction(val_s)
    return table


@pytest.fixture(scope="module")
def table2():
    return Engine(c_max=2).derive_two_point_table()


def test_two_point_table_matches_golden(table2):
    golden = _parse_golden(DATA / "two_point_table.golden")
    assert len(golden) == 189
    for key, want in golden.items():
        assert table2[key] == want, key


def test_two_point_table_fully_determined():
    table = Engine(c_max=3).derive_two_point_table()
    unknown = [k for k, v in table.items() if isinstance(v, Unknown)]
    assert unknown == []


def test_two_point_table_iota_closed(table2):
    for (beta, ins), v in table2.items():
        assert table2[(iota_beta(beta), iota_insertions(ins))] == v


def test_rederivation_without_assoc_seed_rule():
    # acceptance criterion 4: the associativity-table values come back out
    # of the solver when the corresponding seed rule is switched off
    eng = Engine(c_max=3, disabled_seed_rules=("s5",))
    assert eng.invariant((0, 1, 1), [5, 10]) == 0
    assert eng.invariant((0, 1, 1), [5, 11]) == 2
    assert eng.invariant((0, 1, 1), [5, 12]) == 2
    for c in range(4):
        for e in (10, 11, 12):
            assert eng.invariant((1, 0, c), [6, e]) == 0


def test_hand_computed_family_is_not_wdvv_derivable():
    # the <T11 T6> family was computed from the curve geometry precisely
    # because associativity does not pin it: without that seed the solver
    # must report it undetermined rather than invent a value
    eng = Engine(c_max=2, disabled_seed_rules=("s6",))
    for c in (0, 1, 2):
        assert isinstance(eng.invariant((0, 1, c), [6, 11]), Unknown)


@pytest.mark.parametrize("rule, beta, index, reason", [
    ("s1s2", (0, 0, 1), 8,
     "two-point invariant <T8>_((0, 0, 1),) not determined by the shipped seeds"),
    ("s3", (1, 0, 1), 13,
     "two-point invariant <T13>_((1, 0, 1),) not determined by the shipped seeds"),
])
def test_unseeded_one_point_key_is_not_determined(rule, beta, index, reason):
    # the solver never takes a one-point key as a variable, so without its
    # seed rule such a key stays Unknown
    value = Engine(c_max=2, disabled_seed_rules=(rule,)).invariant(beta, [index])
    assert isinstance(value, Unknown) and value.reason == reason


@pytest.mark.parametrize("c_max, job", [
    (4, Engine.derive_two_point_table),
    (2, verify_all),
    (4, lambda eng: count_table(HyperellipticQuery(2, 2, l=1), eng)),
], ids=["two-point-table", "verify-all", "hyper-2-2-l1"])
def test_two_point_solves_follow_the_contract(monkeypatch, c_max, job):
    # each class is solved once, after all its proper sub-classes, and
    # never while its own solve is running
    eng = Engine(c_max=c_max)
    solve = eng._solve_two_point
    running, solved = set(), []

    def checked_solve(beta):
        assert beta not in running and beta not in solved, beta
        assert all(sub in solved for sub, _ in splittings(beta)), beta
        running.add(beta)
        solve(beta)
        running.discard(beta)
        solved.append(beta)

    monkeypatch.setattr(eng, "_solve_two_point", checked_solve)
    job(eng)
    assert solved and not running
    assert set(solved) == eng._solved_betas


def test_no_two_point_key_stays_open_after_the_table():
    eng = Engine(c_max=4)
    eng.derive_two_point_table()
    for beta in eng._solved_betas:
        for key in eng._two_point_candidates(beta):
            assert not eng._open_two_point(key), key


# An unseeded two-point key and its involution image.
_OPEN_KEY, _OPEN_IMAGE = ((1, 1, 0), (10, 13)), ((1, 1, 0), (11, 13))


@pytest.mark.parametrize("kind", [int, Fraction])
def test_solver_contradicting_a_seed_is_fatal(kind):
    eng = Engine(c_max=1)
    key = ((1, 0, 1), (4, 10))
    assert eng.seeds.lookup(*key)[0] == 1
    eng._store_two_point(key, kind(1), "agrees")
    with pytest.raises(ConsistencyError, match="contradicts seed"):
        eng._store_two_point(key, kind(2), "clash")


@pytest.mark.parametrize("kind", [int, Fraction])
def test_solver_contradicting_itself_is_fatal(kind):
    # the stored value may be an int or a Fraction; both are checked
    eng = Engine(c_max=1)
    assert eng.seeds.lookup(*_OPEN_KEY) is None
    eng.memo[_OPEN_KEY] = kind(3)
    eng._store_two_point(_OPEN_KEY, Fraction(3), "agrees")
    assert type(eng.memo[_OPEN_KEY]) is int
    eng.memo[_OPEN_KEY] = kind(3)
    with pytest.raises(ConsistencyError, match="contradicts itself"):
        eng._store_two_point(_OPEN_KEY, Fraction(4), "clash")


@pytest.mark.parametrize("kind", [int, Fraction])
def test_solver_breaking_the_involution_is_fatal(kind):
    eng = Engine(c_max=1)
    assert (iota_beta(_OPEN_KEY[0]), iota_insertions(_OPEN_KEY[1])) == _OPEN_IMAGE
    eng.memo[_OPEN_IMAGE] = kind(3)
    eng._store_two_point(_OPEN_KEY, Fraction(3), "agrees")
    del eng.memo[_OPEN_KEY]
    with pytest.raises(ConsistencyError, match="not involution-closed"):
        eng._store_two_point(_OPEN_KEY, Fraction(4), "clash")


def test_known_set_monotone_in_c_max():
    small = Engine(c_max=1).derive_two_point_table()
    large = Engine(c_max=3).derive_two_point_table()
    for key, v in small.items():
        if not isinstance(v, Unknown):
            assert large[key] == v, key


def _mirror(key):
    return iota_beta(key[0]), iota_insertions(key[1])


def test_iota_equivariance_spot():
    # each orientation is derived on its own fresh engine, by an instance of
    # its own, so the two values are computed independently
    keys = [((1, 1, 2), (4, 6, 13)), ((1, 0, 2), (4, 4, 8)), ((2, 1, 2), (4, 13, 13))]
    for key in keys:
        values = []
        for oriented in (key, _mirror(key)):
            eng = Engine(c_max=2)
            values.append(eng.invariant(*oriented))
            assert eng.origin[oriented].startswith("WDVV "), oriented
            assert "involution image" not in eng.origin[oriented], oriented
        assert _mirror(key) != key and values[0] == values[1], key


_MIRRORED = ((1, 0, 2), (4, 4, 8))


def test_mirror_value_reused_and_labelled():
    # a key whose mirror is already a number takes that number, is
    # labelled as its image and counted, and builds no instance of its own
    eng = Engine(c_max=2)
    value = eng.invariant(*_MIRRORED)
    image = _mirror(_MIRRORED)
    before = dict(eng.stats)
    assert eng.invariant(*image) == value
    assert eng.stats == dict(before, involution_hits=before["involution_hits"] + 1)
    note = eng.origin[_MIRRORED] + " (involution image)"
    assert eng.origin[image] == note
    assert eng.provenance_of(*image) == note
    # the reused number equals the mirror key's own derivation
    fresh = Engine(c_max=2)
    assert fresh.invariant(*image) == value
    assert "involution image" not in fresh.origin[image]


def test_unknown_mirror_not_reused():
    # an Unknown mirror is derived again, so its reason stays its own
    eng = Engine(c_max=1)
    key = ((3, 1, 1), (4,) * 6 + (13,))
    image = _mirror(key)
    first = eng.invariant(*key)
    assert isinstance(first, Unknown) and "(2,0,0)" in first.reason
    second = eng.invariant(*image)
    assert isinstance(second, Unknown) and "(0,2,0)" in second.reason
    assert image not in eng.origin
    assert second == Engine(c_max=1).invariant(*image)


def test_answers_do_not_depend_on_query_order():
    # every dimension-consistent key with a + b <= 2, c <= 4 and one to five
    # insertions from T1..T13, asked in forward order on one engine and in
    # reverse order on another: each answer (a mirror's value reused or
    # not) matches the frozen engine output, an Unknown staying Unknown
    pool = [((a, b, c), ins)
            for a in range(3) for b in range(3 - a) for c in range(5) if (a, b, c) != (0, 0, 0)
            for n in range(1, 6)
            for ins in itertools.combinations_with_replacement(range(1, 14), n)
            if sum(CODIM[i] for i in ins) == 2 * a + 2 * b + 1 + n]
    path = Path(__file__).parent.parent / "perfbench" / "expected" / "stream_pool_c4.txt"
    with open(path) as fh:
        want = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    assert len(pool) == len(want) == 33700
    for order in (1, -1):
        eng = Engine(c_max=4)
        got = {}
        for key in pool[::order]:
            value = eng.invariant(*key)
            got[key] = "UNKNOWN" if isinstance(value, Unknown) else rat_str(value)
        assert [got[key] for key in pool] == want
        assert eng.stats["involution_hits"] > 0


def _query_stream(seed, fresh):
    """A derandomized stream of (class, insertions) queries at c_max 2:
    ``fresh`` dimension-consistent keys with a + b <= 2 and one to five
    insertions from T1..T13 (divisors included), ten more that a
    degree-0 divisor kills and the pure T4^5 powers, which stay Unknown,
    each in a shuffled order; one in eight gets T0 added and one in eight
    an insertion moved off the dimension axiom, and every third is
    followed by a permuted re-ask of an earlier query."""
    rng = random.Random(seed)
    classes = [(a, b, c) for a in range(3) for b in range(3 - a) for c in range(3)
               if (a, b, c) != (0, 0, 0)]
    pool = [(beta, ins) for beta in classes for n in range(1, 6)
            for ins in itertools.combinations_with_replacement(range(1, 14), n)
            if dimension_check(beta, ins)]
    keys = rng.sample(pool, fresh)
    keys += rng.sample([(beta, ins) for beta, ins in pool if len(ins) >= 3
                        and any(CODIM[i] == 1 and not divisor_degree(i, beta)
                                for i in ins[:len(ins) - 2])], 10)
    keys += [(beta, (4,) * 5) for beta in classes if beta[0] + beta[1] == 2]
    rng.shuffle(keys)
    stream = []
    for n, (beta, ins) in enumerate(keys):
        ins = list(ins)
        if n % 8 == 3:
            ins.append(0)
        elif n % 8 == 5:
            ins[0] = 13 if CODIM[ins[0]] != 4 else 1
        rng.shuffle(ins)
        stream.append((beta, ins))
        if n % 3 == 2:
            beta, ins = stream[rng.randrange(len(stream))]
            stream.append((beta, rng.sample(ins, len(ins))))
    return stream


def test_memo_holds_normalized_keys_only():
    # a query is stored under its normalized key only, never as asked, and
    # a key an axiom kills is stored under no key
    stream = _query_stream(17, 160)
    eng = Engine(c_max=2)
    answers = [eng.invariant(beta, ins) for beta, ins in stream]
    assert sum(isinstance(v, Unknown) for v in answers) >= 6  # the T4^5 powers
    assert sum(not dimension_check(beta, ins) or 0 in ins for beta, ins in stream) >= 30
    assert eng.memo
    for key in eng.memo:
        assert eng._normalize(*key) == (1, key), key
    # asking again, in another order and with the insertions permuted,
    # gives the same answers and stores nothing new
    size = len(eng.memo)
    rng = random.Random(18)
    for n in rng.sample(range(len(stream)), len(stream)):
        beta, ins = stream[n]
        assert eng.invariant(beta, rng.sample(ins, len(ins))) == answers[n], stream[n]
    assert len(eng.memo) == size


# -- seed table mechanics ----------------------------------------------------------

@pytest.mark.parametrize("vanishing", [False, True])
def test_seed_table_involution_closed(vanishing):
    # every rule states one orientation; lookup must agree on a key and
    # its factor-swap image, also with any single rule switched off
    keys = [
        ((a, b, c), ins)
        for a in range(4) for b in range(4 - a) for c in range(7) if (a, b, c) != (0, 0, 0)
        for n in range(1, 4)
        for ins in itertools.combinations_with_replacement(range(1, 14), n)
        if dimension_check((a, b, c), ins)
    ]
    for disabled in [()] + [(name,) for name, _, _ in _SEED_RULES]:
        table = SeedTable(vanishing, disabled)
        for beta, ins in keys:
            image = table.lookup(iota_beta(beta), iota_insertions(ins))
            assert table.lookup(beta, ins) == image, (disabled, beta, ins)


def _every_rule_lookup(table, beta, ins):
    # SeedTable.lookup as a loop over every enabled rule, whatever the
    # number of insertions
    hit = table.explicit.get((beta, ins))
    if hit is not None:
        return hit
    if beta[0] < beta[1]:
        beta, ins = iota_beta(beta), iota_insertions(ins)
    for name, _, rule in _SEED_RULES:
        if name not in table.disabled_rules:
            got = rule(table, beta, ins)
            if got is not None:
                return got
    return None


_SEED_KEYS = [
    (beta, ins)
    for n in range(1, 6)
    for ins in itertools.combinations_with_replacement(range(1, 14), n)
    for beta in dimension_classes(ins, 4) if beta[0] + beta[1] <= 3
]


@pytest.mark.parametrize("vanishing", [False, True])
def test_seed_rules_by_arity_match_every_rule(vanishing):
    # lookup runs only the rules declared for the key's insertion count;
    # every dimension-consistent key with 1-5 insertions, a+b <= 3, c <= 4
    assert len(_SEED_KEYS) == 55180
    for disabled in [()] + [(name,) for name, _, _ in _SEED_RULES]:
        table = SeedTable(vanishing, disabled)
        for beta, ins in _SEED_KEYS:
            assert table.lookup(beta, ins) == _every_rule_lookup(table, beta, ins), (
                disabled, beta, ins)


def test_instance_catalog_cache_matches_source(cold_caches):
    # the cached catalog of a codimension total yields the source's
    # sequence, read whole or after another solve has read part of it
    for beta in [(0, 0, 1), (1, 0, 2), (1, 1, 0), (2, 1, 3), (0, 3, 1)]:
        want = list(_catalog_source(expected_dim(beta, 3)))
        part = _instance_catalog(beta)
        head = [next(part) for _ in range(5)]
        assert list(_instance_catalog(beta)) == want
        assert head + list(part) == want
        assert list(_instance_catalog(beta)) == want


def test_disabled_seed_rules_must_name_rules():
    # a typo or a bare string would disable nothing, so an independence
    # check run with it would test nothing
    for disabled in (("s55",), ("s5", "bogus"), "s5"):
        with pytest.raises(UsageError):
            Engine(c_max=1, disabled_seed_rules=disabled)
    names = [name for name, _, _ in _SEED_RULES]
    table = SeedTable(disabled_rules=names)
    assert table.lookup((1, 0, 1), (13,)) is None
    assert SeedTable(disabled_rules=set(names) - {"s3"}).lookup((1, 0, 1), (13,)) == (
        2, "one- and two-point values on the section-plus-fiber classes")


def test_unseeded_pure_t4_reasons():
    # an unseeded <T4> is an unseeded one-point key; an unseeded power of
    # three T4s is Unknown before any associativity instance runs
    eng = Engine(c_max=2, disabled_seed_rules=("s1s2", "s8s9"))
    assert eng.invariant((0, 0, 1), [4]) == Unknown(
        "two-point invariant <T4>_((0, 0, 1),) not determined by the shipped seeds")
    eng = Engine(c_max=2, disabled_seed_rules=("s8s9",))
    assert eng.invariant((0, 1, 0), [4, 4, 4]) == Unknown(
        "requires <T4^3>_(0,1,0) seed; pure incidence-class powers "
        "beyond exponent three are not derivable here")
    assert eng.stats["wdvv_instances"] == 0


def test_seed_overrides_roundtrip():
    lines = ["3,2,2 | 4 4 4 4 4 4 4 4 4 4 4 | 7/3 | synthetic value for testing"]
    eng = Engine(c_max=2, seed_overrides=lines)
    assert eng.invariant((3, 2, 2), [4] * 11) == Fraction(7, 3)
    # the involution image is seeded automatically
    assert eng.invariant((2, 3, 2), [4] * 11) == Fraction(7, 3)
    exported = eng.seeds.materialized_lines(2)
    assert any("7/3" in line for line in exported)


def test_seed_overrides_must_satisfy_dimension():
    table = SeedTable()
    with pytest.raises(UsageError):
        table.load_overrides(["1,0,1 | 13 13 | 1 | broken"])


def test_seed_conflict_detected():
    table = SeedTable()
    table.add((1, 0, 1), (13,), 2, "fine")
    with pytest.raises(ConsistencyError):
        table.add((1, 0, 1), (13,), 3, "clash")


@pytest.mark.parametrize("beta, ins, value", [
    ((1, 0, 1), (-1,), 5),  # -1 would read as T13 through the mirror
    ((1, 0, 1), (14,), 5),
    ((1, 0, 1), 13, 5),
    ((1, 0), (13,), 5),
    (5, (13,), 5),
    ((-1, 2, 1), (4,) * 3, 5),
    ((0, 0, 0), (), 5),
    ((True, 0, 1), (13,), 2),
    ((1, 0, 1), (True,), 2),
    ((1, 0, 1), (13,), 1.5),
    ((1, 0, 1), (13,), 0.1),
    ((1, 0, 1), (13,), True),
    ((1, 0, 1), (13,), None),
    ((1, 0, 1), (13,), "x"),
    ((1, 0, 1), (13,), "1/0"),
    ((1, 0, 1), (13, 13), 2),  # off the dimension axiom
], ids=lambda x: repr(x))
def test_seed_add_refuses_bad_input(beta, ins, value):
    eng = Engine(c_max=1)
    before = dict(eng.seeds.explicit)
    with pytest.raises(UsageError):
        eng.seeds.add(beta, ins, value, "x")
    assert eng.seeds.explicit == before
    assert eng.invariant((1, 0, 1), [13]) == 2
    assert eng.provenance_of((1, 0, 1), (13,)).startswith("seed: one- and two-point")


def test_seed_add_conflict_stores_nothing():
    # the key agrees but its mirror does not: neither entry changes
    table = SeedTable()
    table.add((1, 0, 1), (5, 10), 2, "first")
    table.explicit[((0, 1, 1), (5, 11))] = (3, "planted")
    before = dict(table.explicit)
    with pytest.raises(ConsistencyError):
        table.add((1, 0, 1), (5, 10), 2, "again")
    assert table.explicit == before


def test_seed_overrides_refuse_a_bare_string():
    # a string is an iterable of one-character lines
    with pytest.raises(UsageError, match="collection of lines"):
        Engine(seed_overrides="1,0,1 | 13 | 2 | x")
    assert Engine(c_max=1, seed_overrides=["1,0,1 | 13 | 2 | x"]).invariant((1, 0, 1), [13]) == 2


@pytest.mark.parametrize("text", [
    "1e5000",  # str() of the value would pass Python's 4,300-digit limit
    "1e10000000",  # Fraction alone takes seconds
    "0.5", "2.", "1E0", "-1e-3", "inf", "nan", "1_0", "\u0663", "1/2/3", "1/-2", "/2", "",
])
def test_seed_overrides_refuse_other_number_forms(text):
    # a seed value is an int or p/q in decimal digits, as export writes it
    table = SeedTable()
    with pytest.raises(UsageError, match="bad number in seed line"):
        table.load_overrides(["1,0,1 | 13 | %s | x" % text])
    assert table.explicit == {}


@pytest.mark.parametrize("beta_text, ins_text", [
    ("1,0,1", "TT1_3"),  # read as <T13>_(1,0,1) by int()
    ("1,0,1", "TT13"), ("1,0,1", "1_3"), ("1,0,1", "\u0661\u0663"), ("1,0,1", "+13"),
    ("1,0,1", "T"), ("1,0,1", "t13"), ("1,0,1", "T 13"),
    ("1_0,0,1", "13"), ("\u0661,0,1", "13"), ("+1,0,1", "13"), ("-1,0,1", "13"), ("1,,1", "13"),
])
def test_seed_overrides_refuse_other_class_and_index_forms(beta_text, ins_text):
    # a class component is decimal digits, an index decimal digits after
    # one optional T
    table = SeedTable()
    with pytest.raises(UsageError, match="bad number in seed line"):
        table.load_overrides(["%s | %s | 2 | x" % (beta_text, ins_text)])
    assert table.explicit == {}


@pytest.mark.parametrize("beta_text, ins_text", [
    ("1,0,1", "13"), ("1,0,1", "T13"), (" 1 , 0 , 1 ", "T13"), ("01,0,1", "013")])
def test_seed_overrides_read_class_and_index_forms(beta_text, ins_text):
    table = SeedTable()
    assert table.load_overrides(["%s | %s | 2 | x" % (beta_text, ins_text)]) == 1
    assert table.explicit[((1, 0, 1), (13,))] == (2, "x")


@pytest.mark.parametrize("text, value", [
    ("2", 2), ("+2", 2), ("-7/3", Fraction(-7, 3)), ("4/2", 2), ("007", 7)])
def test_seed_overrides_read_export_number_forms(text, value):
    table = SeedTable()
    assert table.load_overrides(["3,2,2 | %s | %s | x" % (" ".join(["4"] * 11), text)]) == 1
    assert table.explicit[((3, 2, 2), (4,) * 11)] == (value, "x")


def test_provenance_strings(engine):
    engine.invariant((1, 0, 1), [13])
    note = engine.provenance_of((1, 0, 1), (13,))
    assert "seed" in note
    assert "axiom" in engine.provenance_of((1, 0, 0), (4,))
    # a WDVV-derived value names the instance that determined it
    engine.invariant((1, 1, 2), [4, 4, 13])
    assert engine.provenance_of((1, 1, 2), (4, 4, 13)) == (
        "WDVV double-T4 instance: corners(T4,T4,T5,T5) extra(-) at (1, 1, 2)")


@pytest.mark.parametrize("beta, ins, value, wdvv, solver, hits", [
    ((1, 1, 2), [4, 4, 13], 2, 117, 111, 20),
    ((1, 1, 1), [4, 4, 4, 12], 0, 82, 84, 19),
], ids=["T4T4T13", "T4T4T4T12"])
def test_work_counters_pinned(beta, ins, value, wdvv, solver, hits):
    # the work one cold query costs; re-deriving a memoized key raises it.
    # Interior rows are looked up whole, so a key can meet its mirror
    # already derived (T4T4T4T12 built 85 instances and reused 18 mirrors
    # while rows were read in part).  A key the two-point solve of its
    # class reduced takes the solve's expression (124 and 84 instances
    # while such a key built its instance a second time)
    eng = Engine(c_max=2)
    assert eng.invariant(beta, ins) == value
    assert eng.stats == {"wdvv_instances": wdvv, "solver_instances": solver,
                         "involution_hits": hits}


class _RowReadCounter(dict):
    """A memo that counts the reads ``Engine._row`` makes, one per row
    entry the axioms leave."""

    reads = 0

    def get(self, key, default=None):
        if sys._getframe(1).f_code is Engine._row.__code__:
            self.reads += 1
        return dict.get(self, key, default)


def test_interior_lookups_pinned():
    # the interior lookups one cold query makes: each row is looked up
    # whole once and contracted from then on, a side whose row the axioms
    # make zero is not looked up at all, and an entry the axioms zero
    # reads no memo.  While each entry was an ``_invariant`` call, axioms
    # included, the query made 151 calls, one of them its own (the loop
    # without rows made 8,434 lookups, with rows but no dead sides 2,602,
    # and 215 while a row read in part was looked up again at every visit)
    eng = Engine(c_max=2)
    eng.memo = _RowReadCounter()
    assert eng.invariant((1, 1, 2), [4, 4, 13]) == 2
    assert eng.memo.reads == 150
    # 124 instances while a key the solve reduced was reduced again
    assert eng.stats == {"wdvv_instances": 117, "solver_instances": 111, "involution_hits": 20}


def test_boundary_compiled_once_per_shape(cold_caches):
    # each (corners, extra) shape is expanded once, and its interior plan
    # made once per a+b: every instance the query builds (WDVV reductions
    # and solver rows) is one lookup in each cache
    eng = Engine(c_max=2)
    assert eng.invariant((1, 1, 2), [4, 4, 13]) == 2
    built = eng.stats["wdvv_instances"] + eng.stats["solver_instances"]
    # (86, 149) while a key the solve reduced built its instance again
    info = _boundary_terms.cache_info()
    assert (info.misses, info.hits) == (86, 142)
    assert info.hits + info.misses == built
    info = _interior_plan.cache_info()
    assert (info.misses, info.hits) == (86, 142)  # one class, so one a+b
    assert info.hits + info.misses == built


def test_normal_plan_cached_per_raw_tuple(cold_caches):
    # the axioms' class-free part is worked out once per raw insertion
    # tuple: the plans of row entries and boundary terms are read once per
    # shape, when ``_row_plan`` or ``_boundary_terms`` compiles it, and a
    # hit is left only where a second shape, or a query, meets the tuple.
    # (493, 784) while each row entry and boundary term asked for its plan
    # at every lookup; (310, 1193) while each row the table lacked was
    # judged at its class; the row masks read the plan of every t once per
    # (x, y, P, codim, a+b), also for tuples no lookup of the query
    # reaches (more misses), instead of once per row judged (fewer hits);
    # (493, 809) while a key looked up as asked was stored in the memo
    # too, so a repeated raw lookup skipped the axioms; (493, 810) while a
    # key the two-point solve reduced built its instance again
    eng = Engine(c_max=2)
    assert eng.invariant((1, 1, 2), [4, 4, 13]) == 2
    info = _normal_plan.cache_info()
    assert (info.misses, info.hits) == (493, 205)


def test_module_caches_are_keyed_by_shape():
    # a second fresh engine that answers the same queries as a first adds
    # no entry to any plan cache: each is keyed by a class-free shape (or
    # an a+b), never by a class's other parts or by an engine.  The
    # queries: the (3,2) column with two conjugate pairs, and 200 keys of
    # the benchmark stream's space (a+b <= 2, one to five insertions)
    pool = [(beta, ins) for n in range(1, 6)
            for ins in itertools.combinations_with_replacement(range(1, BASIS_SIZE), n)
            for beta in dimension_classes(ins, 3) if beta[0] + beta[1] <= 2]
    keys = random.Random(7).sample(pool, 200)
    caches = (_row_plan, _boundary_terms, _interior_plan, _row_mask, _normal_plan)

    def answer():
        eng = Engine(c_max=3, enable_bidegree_vanishing=True)
        column = forward_invariants(HyperellipticQuery(3, 2, l=2), eng)
        return column, [eng.invariant(beta, ins) for beta, ins in keys]

    first = answer()
    sizes = [cache.cache_info().currsize for cache in caches]
    assert answer() == first
    assert [cache.cache_info().currsize for cache in caches] == sizes


def test_add_scaled_accumulates_in_place():
    acc = LinExpr()
    a, b = ((1, 0, 1), (5, 10)), ((1, 0, 1), (6, 10))
    acc.add_scaled(LinExpr(2, {a: Fraction(1), b: Fraction(3)}), Fraction(1, 2))
    acc.add_scaled(LinExpr(1, {a: Fraction(1, 2)}, poison=Unknown("first")), -1)
    acc.add_scaled(LinExpr(poison=Unknown("second")), 5)
    assert (acc.const, acc.coeffs, acc.poison) == (0, {b: Fraction(3, 2)}, Unknown("first"))


def _make_row(values):
    # a row as ``Engine._row`` stores it: the nonzero and Unknown values in
    # t order, or the shared empty row
    return {t: _exact(v) for t, v in values if isinstance(v, Unknown) or v} or _EMPTY_ROW


def test_row_contraction_is_exact():
    # contracting two rows in integers, divided by the common denominator,
    # equals the Fraction sum over the inverse pairing
    denom, _ = scaled_dual_groups()
    assert denom == 2
    rng = random.Random(7)
    for ce in range(5):
        e_vals = {e: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 3)))
                  for e, _ in dual_groups() if CODIM[e] == ce}
        f_vals = {f: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 5)))
                  for f, _ in dual_groups() if CODIM[f] == 4 - ce}
        e_row, f_row = _make_row(e_vals.items()), _make_row(f_vals.items())
        want = sum((e_vals[e] * w * f_vals[f] for e, fws in dual_groups()
                    if CODIM[e] == ce for f, w in fws), Fraction(0))
        assert Fraction(_contract(e_row, f_row), denom) == want
        for v in [*e_row.values(), *f_row.values()]:
            assert v and (type(v) is int or v.denominator > 1)
    assert _make_row([(4, Fraction(0)), (5, Fraction(0))]) is _EMPTY_ROW
    assert _contract(_EMPTY_ROW, _make_row([(4, Unknown("x"))])) == 0


def test_row_contraction_reports_the_first_unknown_term():
    # an Unknown facing a nonzero value (or another Unknown) is reported
    # at its (e, f), the first in (e, f) order, the e-row's Unknown first,
    # not contracted; an Unknown facing only zeros is absorbed.  The
    # scaled weights D * g^{ef} used: e = 4: f = 4, 5; e = 5: f = 4, 6, 7,
    # 8, 9; e = 6: f = 5 (-1), 9 (1)
    x, y = Unknown("x"), Unknown("y")
    e_row = _make_row([(4, x), (6, 3)])
    assert _contract(e_row, _make_row([(5, 1), (9, 2)])) == (4, 5, x)
    assert _contract(e_row, _make_row([(9, 2)])) == 6  # x meets only zeros
    assert _contract(_make_row([(6, 3)]), _make_row([(5, y), (9, 2)])) == (6, 5, y)
    assert _contract(_make_row([(5, x)]), _make_row([(4, y)])) == (5, 4, x)
    assert _contract(_make_row([(5, 1)]), _make_row([(6, y), (8, x)])) == (5, 6, y)


# a row's values before ``_make_row``: zeros are drawn often, and "U"
# stands for an Unknown named after its place
_ROW_VALUE = st.one_of(st.integers(-3, 3), st.just(0), st.just("U"),
                       st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def _row_pairs(draw):
    ce = draw(st.integers(0, 4))
    rows = []
    for side, codim in (("e", ce), ("f", 4 - ce)):
        rows.append({t: Unknown("%s%d" % (side, t)) if v == "U" else v
                     for t in range(len(CODIM)) if CODIM[t] == codim
                     for v in [draw(_ROW_VALUE)]})
    return rows


def _contract_by_loop(e_vals, f_vals):
    # every (e, f) term in order, each product as ``val_mul`` takes it
    g_inv = pairing().g_inv
    total = Fraction(0)
    for e, x in e_vals.items():
        for f, y in f_vals.items():
            if g_inv[e][f]:
                term = val_mul(x, y)
                if isinstance(term, Unknown):
                    return e, f, term
                total += g_inv[e][f] * term
    return total


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_row_pairs())
def test_contract_matches_the_term_loop(rows):
    # rows built from random values (ints, Fractions, zeros, Unknowns)
    # contract, divided by D, to the loop over every (e, f) term, or stop
    # at the same first Unknown term
    e_vals, f_vals = rows
    got = _contract(_make_row(e_vals.items()), _make_row(f_vals.items()))
    want = _contract_by_loop(e_vals, f_vals)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert Fraction(got, scaled_dual_groups()[0]) == want


# -- dead interior rows ---------------------------------------------------------

def _row_is_live(key):
    b, x, y, part, codim = key
    return bool(_row_mask(x, y, part, codim, 2 * (b[0] + b[1])) >> _pattern(b) & 1)


def test_axioms_make_a_row_dead():
    # a codimension-0 group is T0 alone: the fundamental-class axiom
    t0 = ((1, 0, 0), 1, 1, (), 0)
    # the first stripped divisor T3 has degree c = 0 on (1, 0, 0)
    corner = ((1, 0, 0), 3, 4, (), 3)
    assert not _row_is_live(t0) and not _row_is_live(corner)
    # T3 has degree 1 on (1, 0, 1); on (1, 0, 0) of T1, T2, T3 only T2 has
    # a nonzero degree, so <T4 T10 t> passes the axioms for t = T2 alone
    live = ((1, 0, 1), 3, 4, (), 3), ((1, 0, 0), 4, 10, (), 1)
    assert all(_row_is_live(key) for key in live)
    eng = Engine(c_max=2)
    assert [eng._normalize((1, 0, 0), (4, 10, t))[1] is None
            for t in (1, 2, 3)] == [True, False, True]
    # the masks are per nonzero pattern (bit n: component n is not 0):
    # <T3 T4 t> is live exactly where c is not 0, and <T4 T10 t> wherever
    # some component is, since t = T2, T1, T3 each needs its own
    assert _row_mask(3, 4, (), 3, 2) == 0b11110000
    assert _row_mask(4, 10, (), 1, 2) == 0b11111110
    # a side with a codimension-0 or -4 group, or with a row dead at every
    # class, never reaches the plan
    assert _side_plan(1, 1, (), 3, 4, (), 0, 1, 1) is None
    assert _side_plan(3, 4, (), 1, 1, (), 4, 1, 1) is None
    assert _side_plan(1, 2, (), 0, 4, (), 1, 0, 1) is None
    assert _side_plan(3, 4, (), 4, 10, (), 3, 1, 1) == (3, 0b11110000, 0b11111110)
    # an interior sum builds rows for live sides only: <T4 T4 T13>_(1,1,2)
    # stores no row the axioms make dead
    eng.invariant((1, 1, 2), [4, 4, 13])
    assert eng._rows and all(_row_is_live(key) for key in eng._rows)


def test_stored_rows_are_dead_only_when_empty():
    eng = Engine(c_max=2)
    # an Unknown e-row at e = T1 (codimension 1) against the f-row keyed
    # ``key`` (codimension 3), which the axioms find live
    e_key, key = ((0, 1, 0), 1, 2, (), 1), ((1, 0, 1), 3, 4, (), 3)
    eng._rows[e_key] = _make_row([(1, Unknown("y"))])
    eng._rows[key] = _EMPTY_ROW
    assert eng._side(e_key, key) == 0
    # a stored row with entries is live, whether they are numbers or all
    # Unknown, so the Unknown e-row facing it (g^{1,11} is not 0) is not
    # contracted to 0
    for row in ({11: 1}, {11: Unknown("x")}):
        eng._rows[key] = row
        assert eng._side(e_key, key) == (1, 11, Unknown("y"))
    assert eng.memo == {}


def test_dead_side_absorbs_an_unknown_row():
    # <T4^4 T13>_(1,2,1) at c_max 1 meets the row of <T4 T4 t T4 T4>_(0,2,0),
    # which holds the Unknown <T4^5>_(0,2,0), against the f-row
    # <T1 T2 f>_(0,0,1), which T1's degree 0 on (0,0,1) makes dead: that
    # side is 0, as in the reference loop, which multiplies the Unknown
    # by exact zeros.  The side belongs to the instance corners (T4, T4,
    # T1, T2), extra (T4, T4) at (0, 2, 1), and the plan skips it there
    # without building the f-row's key
    eng = Engine(c_max=1)
    assert eng.invariant((1, 2, 1), [4, 4, 4, 4, 13]) == 0
    e_key, f_key = ((0, 2, 0), 4, 4, (4, 4), 2), ((0, 0, 1), 1, 2, (), 2)
    assert any(isinstance(v, Unknown) for v in eng._rows[e_key].values())
    assert _row_is_live(e_key) and not _row_is_live(f_key)
    assert f_key not in eng._rows
    plan = _interior_plan((4, 4, 1, 2), (4, 4), 2)[2]
    _, _, weight, lhs, _ = next(p for p in plan if p[:2] == ((4, 4), ()))
    ce, e_mask, f_mask = lhs
    assert (weight, ce) == (1, 2)
    assert e_mask >> _pattern((0, 2, 0)) & 1 and not f_mask >> _pattern((0, 0, 1)) & 1
    assert eng.wdvv_residual(4, 4, 1, 2, (4, 4), (0, 2, 1)) == 0


@pytest.mark.parametrize("c_max, beta, ins, unknown_rows", [
    (1, (1, 2, 1), [4, 4, 4, 4, 13], 4),
    (2, (1, 1, 2), [4, 4, 13], 0),
])
def test_stored_rows_are_whole(c_max, beta, ins, unknown_rows):
    # every row a cold query stores holds the nonzero and Unknown values of
    # its whole codimension group in t order, as looking each entry up
    # returns them, and contracting an Unknown-free row against a unit
    # e-row gives D * g^{ef} summed against it
    eng = Engine(c_max=c_max)
    eng.invariant(beta, ins)
    rows = dict(eng._rows)
    assert sum(1 for row in rows.values()
               if any(isinstance(v, Unknown) for v in row.values())) == unknown_rows
    denom, _ = scaled_dual_groups()
    for (b, x, y, part, codim), row in rows.items():
        values = [(t, eng._invariant(b, (x, y, t) + part))
                  for t in range(len(CODIM)) if CODIM[t] == codim]
        assert list(row.items()) == [(t, v) for t, v in values if isinstance(v, Unknown) or v]
        if any(isinstance(v, Unknown) for _, v in values):
            continue
        got = dict(values)
        for e, fws in dual_groups():
            assert _contract({e: 1}, row) == denom * sum(w * got.get(f, 0) for f, w in fws)

# -- number types ----------------------------------------------------------------

def test_memo_values_are_exact(engine_bidegree):
    # integral values are stored as ints, never as Fractions
    count_table(HyperellipticQuery(3, 2, l=2), engine_bidegree)
    ints = 0
    for key, v in engine_bidegree.memo.items():
        assert (type(v) is int or isinstance(v, Unknown)
                or type(v) is Fraction and v.denominator > 1), (key, v)
        ints += type(v) is int
    assert ints > 1000


def test_public_values_stay_fractions(engine):
    for _ in range(2):  # derived, then a memo hit
        assert type(engine.invariant((1, 1, 2), [4, 4, 13])) is Fraction
    assert type(engine.invariant((1, 0, 0), [1, 13])) is Fraction  # an axiom's zero
    assert type(engine.invariant((0, 0, 2), [8])) is Fraction  # a seed
    assert type(engine.wdvv_residual(3, 13, 1, 10, (), (1, 1, 1))) is Fraction
    assert isinstance(Engine(c_max=1).wdvv_residual(1, 3, 3, 10, (), (1, 0, 2)), Unknown)
    table = engine.derive_two_point_table()
    assert all(type(v) is Fraction or isinstance(v, Unknown) for v in table.values())
    q = HyperellipticQuery(2, 2, l=2)
    assert all(type(v) is Fraction for v in forward_invariants(q, engine).values())
    assert all(type(v) is Fraction for v in count_table(q, engine).counts.values())


def test_fraction_constructions_pinned(fraction_count):
    # integral values travel as ints, the Gauss solver's rows and the
    # fibre-class seeds 4/c^2 included, so a cold query builds Fractions
    # only for non-integral values and the public result (18,065 when every
    # value was a Fraction, 1,664 while the solver's rows were Fractions,
    # 82 while the seeds 4/1 and 4/4 were, 83 once rows were looked up
    # whole, which reads one more of those seeds, and 65 while the solver's
    # rows were dense lists: a row operation with a non-integral factor f
    # built two Fractions, f * 0 and r - f * 0, for each zero entry of the
    # pivot row, 40 in this query; the sparse rows skip those and build 3
    # for the -f that ``LinExpr.add_scaled`` takes)
    Engine(c_max=2).invariant((1, 1, 2), [4, 4, 13])  # fill the module caches
    value, calls = fraction_count(lambda: Engine(c_max=2).invariant((1, 1, 2), [4, 4, 13]))
    assert value == 2
    assert calls == 28


@pytest.mark.parametrize("ins", [(4, 4, 12), (12, 4, 4), (4, 4, 13), (13, 4, 4)])
def test_memo_hit_builds_one_fraction(fraction_count, ins):
    # an all-index query that hits the memo builds at most its public
    # result: one Fraction for <T4 T4 T13>_(1,1,2) = 2, and none for
    # <T4 T4 T12>_(1,1,1) = 0, since every zero answer is the one shared
    # Fraction(0) (the zero built 1 while each zero answer was its own)
    beta, want, fractions = ((1, 1, 1), 0, 0) if 12 in ins else ((1, 1, 2), 2, 1)
    eng = Engine(c_max=2)
    assert eng.invariant(beta, sorted(ins)) == want
    value, calls = fraction_count(lambda: eng.invariant(beta, ins))
    assert type(value) is Fraction and value == want
    assert calls == fractions


@pytest.mark.parametrize("c_max, beta, ins", [
    (1, (1, 2, 1), (4, 4, 4, 4, 13)),
    (2, (1, 1, 2), (5, 5, 5, 5, 5)),
    (2, (1, 2, 1), (4, 4, 4, 4, 4, 12)),  # Unknown: an unseeded <T4^5>
])
def test_cold_query_builds_one_linexpr_per_instance(linexpr_count, c_max, beta, ins):
    # numbers stay numbers: with the two-point tables solved, every key a
    # numeric reduction meets is a number or an Unknown, so each instance
    # builds one LinExpr, its accumulator (a LinExpr wrapped every value
    # returned, every boundary term and every result)
    eng = Engine(c_max=c_max)
    eng.derive_two_point_table()
    before = dict(eng.stats)
    _, calls = linexpr_count(lambda: eng.invariant(beta, ins))
    built = eng.stats["wdvv_instances"] - before["wdvv_instances"]
    assert eng.stats["solver_instances"] == before["solver_instances"]
    assert built > 0 and calls == built


def test_each_key_reduced_once():
    # a key the two-point solve of its class reduced takes the solve's
    # expression at the solved values, so on one engine the 105 basis
    # products and then every relation build each instance once (1,229
    # instances for 990 targets while such a key built its instance again)
    eng = Engine(c_max=6)
    eng.tracing = True
    ring = SmallQuantum(eng)
    for i in range(BASIS_SIZE):
        for j in range(i, BASIS_SIZE):
            ring.basis_product(i, j)
    verify_all(eng)
    targets = [rec.target for rec in eng.trace_log]
    assert len(targets) == len(set(targets)) == eng.stats["wdvv_instances"] == 990
    # the relations first: a key whose own instance meets the first
    # unsolved two-point key of its class is reduced again by the solve
    # that key starts, before the solved values exist (13 such keys)
    eng = Engine(c_max=6)
    eng.tracing = True
    verify_all(eng)
    targets = [rec.target for rec in eng.trace_log]
    twice = {key for key in targets if targets.count(key) > 1}
    assert len(targets) - len(set(targets)) == len(twice) == 13
    assert {ins for _, ins in twice} == {(5, 5, 13)}


def test_trace_records():
    eng = Engine(c_max=2)
    eng.tracing = True
    eng.invariant((1, 1, 2), [4, 4, 13])
    assert eng.trace_log
    assert any("corners" in rec.describe() for rec in eng.trace_log)


# -- lifetime ----------------------------------------------------------------------

def test_discarded_engine_is_freed():
    # nothing the engine, the quantum product or the count tables cache at
    # module level keeps an engine alive once its caller drops it
    eng = Engine(c_max=2)
    for beta, ins in _query_stream(19, 40):
        eng.invariant(beta, ins)
    SmallQuantum(eng).basis_product(4, 4)
    verify_all(eng)
    count_table(HyperellipticQuery(1, 1, l=1), eng)
    ref = weakref.ref(eng)
    del eng
    gc.collect()
    assert ref() is None
