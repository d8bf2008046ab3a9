import csv
import io
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from qhilb.chow import UsageError
from qhilb.coeffring import rat_str
from qhilb.gw_engine import Engine, Unknown
from qhilb.hyperelliptic import (
    HyperellipticQuery,
    beta_of,
    count_table,
    forward_counts,
    forward_invariants,
    invert_counts,
    seed_vanishing,
)
from oracle_quadric import rational_count

DATA = Path(__file__).parent / "data"

# -- index bookkeeping ---------------------------------------------------------

def test_beta_of():
    assert beta_of(3, 2, 2) == (2, 3, 2)
    assert beta_of(1, 1, 1) == (1, 1, 0)
    assert beta_of(4, 2, 5) == (2, 4, 0)  # maximal genus lands on c = 0
    for g in (5, -1, 0.5, True):
        with pytest.raises(UsageError):
            beta_of(1, 1, g)


def test_query_validation():
    q = HyperellipticQuery(2, 3, l=1)
    assert q.r == 11 and q.k == 8 and q.h_max == 4
    assert q.insertions() == (13,) + (4,) * 8
    with pytest.raises(UsageError):
        HyperellipticQuery(0, 2)
    with pytest.raises(UsageError):
        HyperellipticQuery(1, 1, l=2)  # k would be negative


@pytest.mark.parametrize("args", [(1.5, 1), (1, 1, 0.5), (True, 1), (1, True, 1),
                                  (1, 1, False), ("1", 1), (1, 1, None)])
def test_query_wants_ints(args):
    # bools and integral floats are not read as ints
    with pytest.raises(UsageError, match="wants an int"):
        HyperellipticQuery(*args)


def test_seed_vanishing():
    assert not seed_vanishing(2, 3)  # the first admissible bidegree
    for d in range(1, 8):
        assert seed_vanishing(1, d)
    assert seed_vanishing(2, 2)
    with pytest.raises(UsageError):
        seed_vanishing(-1, 2)


# -- the binomial transform ------------------------------------------------------

def test_single_term_transform():
    h0 = 3
    counts = {h: Fraction(1 if h == h0 else 0) for h in range(h0 + 1)}
    invs = forward_counts(counts, 0, h0)
    for g in range(h0 + 1):
        assert invs[g] == comb(2 * h0 + 2, h0 - g)


def test_round_trip_randomized():
    rng = random.Random(424242)
    for _ in range(100):
        d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
        h_max = d1 + d2 - 1
        counts = {
            h: Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            for h in range(h_max + 1)
        }
        invs = forward_counts(counts, 0, h_max)
        back = invert_counts(invs, d1, d2)
        assert back.counts == counts


def test_all_zero_invariants_give_zero_counts():
    invs = {g: Fraction(0) for g in range(4)}
    assert all(v == 0 for v in invert_counts(invs, 2, 2).counts.values())


def test_unknown_propagates_downward():
    invs = {0: Fraction(1), 1: Unknown("missing"), 2: Fraction(0)}
    table = invert_counts(invs, 2, 1)
    assert table.counts[2] == 0
    assert isinstance(table.counts[1], Unknown)
    assert isinstance(table.counts[0], Unknown)  # depends on the genus above


def test_h_range_respected():
    invs = {g: Fraction(0) for g in range(1, 3)}
    table = invert_counts(invs, 1, 2)
    assert sorted(table.counts) == [1, 2]
    assert max(table.counts) == 1 + 2 - 1
    # a genus without its invariant gets no count, nor does any genus below
    assert invert_counts({}, 1, 1).counts == {}
    assert invert_counts({0: Fraction(1), 2: Fraction(0)}, 1, 2).counts == {2: 0}


def test_g_min_outside_genus_range_rejected():
    # a g_min outside 0..d1+d2-1 is a usage error, not an empty table
    eng = Engine(c_max=2)
    q = HyperellipticQuery(1, 1)
    for g_min in (-1, 2, 5, 0.5, 1.0, True, None):
        with pytest.raises(UsageError):
            count_table(q, eng, g_min=g_min)
        with pytest.raises(UsageError):
            forward_invariants(q, eng, g_min=g_min)
    assert list(forward_invariants(q, eng, g_min=1)) == [1]


# -- engine-backed columns ---------------------------------------------------------

def test_column_1_1_l1(engine):
    q = HyperellipticQuery(1, 1, l=1)
    table = count_table(q, engine)
    assert {h: v for h, v in table.counts.items()} == {0: 0, 1: 0}


def test_column_2_2_l2(engine):
    # frozen engine-derived golden values: one genus-1 curve and twelve
    # genus-0 curves meet the constraints; the genus-0 entry is checked
    # against oracle_quadric (test_genus_zero_two_pairs_is_kontsevich_manin),
    # the genus-1 entry is not externally checked
    q = HyperellipticQuery(2, 2, l=2)
    table = count_table(q, engine)
    assert table.counts == {0: Fraction(12), 1: Fraction(1), 2: Fraction(0), 3: Fraction(0)}


def test_column_3_2_l0_unknown(engine):
    q = HyperellipticQuery(3, 2, l=0)
    invs = forward_invariants(q, engine)
    assert isinstance(invs[2], Unknown)
    assert "T4^11" in invs[2].reason
    table = invert_counts(invs, 3, 2)
    assert any(isinstance(v, Unknown) for v in table.counts.values())


def test_bidegree_vanishing_columns(engine_bidegree):
    for d1, d2 in ((1, 1), (1, 2), (2, 2)):
        q = HyperellipticQuery(d1, d2, l=0)
        table = count_table(q, engine_bidegree)
        assert all(v == 0 for v in table.counts.values()), (d1, d2)


def test_iota_symmetry_of_tables():
    # each orientation on its own fresh engine, every invariant of the
    # column derived by an instance of its own, not reused from its mirror
    tables = []
    for d1, d2 in ((1, 2), (2, 1)):
        q = HyperellipticQuery(d1, d2, l=1)
        eng = Engine(c_max=4, enable_bidegree_vanishing=True)
        tables.append(count_table(q, eng).counts)
        for g in range(q.h_max + 1):
            note = eng.origin[(beta_of(d1, d2, g), tuple(sorted(q.insertions())))]
            assert note.startswith("WDVV ") and "involution image" not in note, (d1, d2, g)
    assert tables[0] == tables[1]


def test_rows_shape(engine):
    q = HyperellipticQuery(1, 1, l=1)
    rows = count_table(q, engine).rows(q.l)
    assert rows[0][:4] == (1, 1, 1, 0)
    assert all(len(r) == 6 for r in rows)


def test_column_3_2_l1_with_vanishing(engine_bidegree):
    # frozen engine-derived golden: twenty genus-1 curves, nothing else
    q = HyperellipticQuery(3, 2, l=1)
    table = count_table(q, engine_bidegree)
    assert table.counts == {0: 0, 1: Fraction(20), 2: 0, 3: 0, 4: 0}


def test_columns_3_2_higher_conjugate_pairs(engine_bidegree):
    # frozen engine-derived goldens for the first non-vanishing bidegree;
    # the l = 2 genus-0 entry, 96, is checked against oracle_quadric, the
    # other entries are not externally checked
    t2 = count_table(HyperellipticQuery(3, 2, l=2), engine_bidegree)
    assert t2.counts == {0: Fraction(96), 1: Fraction(16), 2: 0, 3: 0, 4: 0}
    t3 = count_table(HyperellipticQuery(3, 2, l=3), engine_bidegree)
    assert t3.counts == {0: Fraction(30), 1: Fraction(6), 2: 0, 3: 0, 4: 0}


@pytest.mark.parametrize("d1, d2, l, vanishing, wdvv, solver", [
    (3, 2, 2, True, 990, 216),
    (2, 2, 1, False, 809, 376),
], ids=["3_2_l2_vanishing", "2_2_l1"])
def test_hyper_column_work_pinned(d1, d2, l, vanishing, wdvv, solver):
    # the associativity instances one column costs on a fresh engine at
    # c_max 4, as the CLI's `hyper` command builds it (the two columns of
    # the hyper-columns benchmark workload); how dead interior sides are
    # skipped changes none of this work.  1,069 and 909 instances while a
    # key the two-point solve reduced built its instance again
    eng = Engine(c_max=4, enable_bidegree_vanishing=vanishing)
    count_table(HyperellipticQuery(d1, d2, l=l), eng)
    assert (eng.stats["wdvv_instances"], eng.stats["solver_instances"]) == (wdvv, solver)


def test_kontsevich_manin_oracle_values():
    assert [rational_count(d, 1) for d in range(1, 6)] == [1] * 5
    assert [rational_count(*ab) for ab in ((2, 2), (3, 2), (4, 2), (3, 3))] == [12, 96, 640, 3510]
    assert rational_count(2, 3) == rational_count(3, 2)
    assert rational_count(2, 0) == 0


def test_genus_zero_two_pairs_is_kontsevich_manin(engine_bidegree):
    # two general pairs of points on P1 are the fibres of exactly one g^1_2,
    # so with l = 2 conjugate pairs the genus-0 count is the number of
    # rational curves through 2 d1 + 2 d2 - 1 points (external oracle)
    columns = [(d1, s - d1) for s in range(3, 6) for d1 in range(1, s)]
    assert len(columns) == 9
    for d1, d2 in columns:
        table = count_table(HyperellipticQuery(d1, d2, l=2), engine_bidegree)
        assert table.counts[0] == rational_count(d1, d2), (d1, d2)


def test_genus_zero_two_pairs_is_kontsevich_manin_at_degree_six():
    # the d1 + d2 = 6 columns reach q3^5, so they need an engine at c_max 5
    eng = Engine(c_max=5, enable_bidegree_vanishing=True)
    got = [count_table(HyperellipticQuery(d1, 6 - d1, l=2), eng).counts[0]
           for d1 in range(1, 6)]
    assert got == [rational_count(d1, 6 - d1) for d1 in range(1, 6)] == [1, 640, 3510, 640, 1]


def test_genus_zero_two_pairs_is_kontsevich_manin_at_degree_seven():
    # the d1 + d2 = 7 columns reach q3^6; deep in the recursion, most
    # interior sides are ones the axioms make zero
    eng = Engine(c_max=6, enable_bidegree_vanishing=True)
    got = [count_table(HyperellipticQuery(d1, 7 - d1, l=2), eng).counts[0]
           for d1 in range(1, 7)]
    assert got == [rational_count(d1, 7 - d1) for d1 in range(1, 7)] == [
        1, 3840, 87544, 87544, 3840, 1]


def test_vanishing_flag_is_conservative(engine, engine_bidegree):
    # the optional rule may only turn Unknowns into zeros: every value the
    # default configuration knows must come out unchanged
    q = HyperellipticQuery(3, 2, l=3)
    default = forward_invariants(q, engine)
    flagged = forward_invariants(q, engine_bidegree)
    for g, v in default.items():
        if not isinstance(v, Unknown):
            assert flagged[g] == v


# -- the c_max 4 atlas -------------------------------------------------------------

ATLAS_COLUMNS = [(d1, s - d1, l) for s in range(2, 6) for d1 in range(1, s)
                 for l in range((2 * s + 1) // 3 + 1)]

ATLAS_HEADER = """\
# Hyperelliptic count tables at c_max 4 for every bidegree (d1, d2) with
# d1, d2 >= 1 and d1 + d2 <= 5 and every l from 0 to (2 (d1 + d2) + 1) // 3,
# without (vanishing 0) and with (vanishing 1) the bidegree-vanishing rule.
# Engine-derived and frozen, not external ground truth: of these entries
# only the l = 2, h = 0 ones are checked against an independent count
# (oracle_quadric), and the vanishing-rule l = 1, h = 1 ones of (2,3) and
# (3,2) against the Kleiman-Piene count N1 = 20 (oracle_severi).
"""


@pytest.fixture(scope="module")
def atlas(engine, engine_bidegree):
    """(vanishing, d1, d2, l) -> count table, on the shared c_max 4 engines."""
    return {(rule, d1, d2, l): count_table(HyperellipticQuery(d1, d2, l), eng)
            for rule, eng in ((0, engine), (1, engine_bidegree))
            for d1, d2, l in ATLAS_COLUMNS}


def atlas_csv(atlas) -> str:
    buf = io.StringIO()
    buf.write(ATLAS_HEADER)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["vanishing", "d1", "d2", "l", "h", "count", "provenance"])
    for (rule, d1, d2, l), table in atlas.items():
        for _, _, _, h, v, note in table.rows(l):
            writer.writerow([rule, d1, d2, l, h, "UNKNOWN" if v is None else rat_str(v), note])
    return buf.getvalue()


def test_atlas_structural_facts(atlas):
    # for every known count: a non-negative integer, zero above the
    # arithmetic genus (d1 - 1)(d2 - 1), zero at h = 0 for l <= 1 (rational
    # curves move in 2 d1 + 2 d2 - 1 dimensions, too few for the points),
    # and the same in the (d2, d1) table
    assert len(atlas) == 72
    known = 0
    for (rule, d1, d2, l), table in atlas.items():
        assert sorted(table.counts) == list(range(d1 + d2))
        mirror = atlas[(rule, d2, d1, l)].counts
        for h, v in table.counts.items():
            where = (rule, d1, d2, l, h)
            if isinstance(v, Unknown):
                assert isinstance(mirror[h], Unknown), where
                continue
            known += 1
            assert v.denominator == 1 and v >= 0, where
            if h > (d1 - 1) * (d2 - 1) or (h == 0 and l <= 1):
                assert v == 0, where
            assert mirror[h] == v, where
    assert known == 213


def test_atlas_matches_frozen_golden(atlas):
    assert atlas_csv(atlas) == (DATA / "atlas_c4.golden.csv").read_text()
