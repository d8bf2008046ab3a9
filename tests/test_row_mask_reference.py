"""The cached row masks and interior plans against the row-by-row verdict.

The engine decides whether the axioms make an interior row dead from a
mask cached per (x, y, P, codim, 2(a+b)), read at the class's nonzero
pattern, and skips a side of an associativity sum when the cached plan
of its (corners, extra, a+b) says one of its rows is dead.
``reference_row_is_live`` is the loop that judged one row at a time.

Both get the same random rows: indices biased towards divisors, some
corners and extra insertions T0, every codimension 0..4, classes with
zero components, at an a+b the dimension axiom accepts or at an
arbitrary one.  They must give the same verdict.  The same goes for
whole instances: the sides the plan passes, in the engine's order, must
be exactly the sides whose two rows the reference finds live.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhilb.chow import CODIM
from qhilb.gw_engine import _interior_plan, _pattern, _row_mask, _split_plan, splittings
from reference_judge_row import reference_row_is_live
from reference_wdvv import _multiset_splits

INDEX = st.one_of(st.integers(1, 3), st.integers(0, 13))
COMPONENT = st.one_of(st.just(0), st.integers(0, 3))


def mask_says_live(key):
    b, x, y, part, codim = key
    return bool(_row_mask(x, y, part, codim, 2 * (b[0] + b[1])) >> _pattern(b) & 1)


@st.composite
def rows(draw):
    x, y = draw(INDEX), draw(INDEX)
    part = tuple(draw(st.lists(INDEX, max_size=4)))
    codim = draw(st.integers(0, 4))
    double = CODIM[x] + CODIM[y] + codim + sum(CODIM[t] for t in part) - len(part) - 4
    c = draw(COMPONENT)
    if double >= 0 and not double % 2 and draw(st.integers(0, 3)):
        a = draw(st.integers(0, double // 2))
        return (a, double // 2 - a, c), x, y, part, codim
    return (draw(COMPONENT), draw(COMPONENT), c), x, y, part, codim


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(rows())
@example(((1, 0, 0), 1, 1, (), 0))    # codimension 0: T0 alone
@example(((0, 1, 0), 1, 2, (), 4))    # codimension 4: the point class
@example(((1, 0, 0), 0, 4, (), 3))    # a T0 corner
@example(((1, 0, 0), 3, 4, (), 3))    # the stripped T3 has degree c = 0
@example(((1, 0, 1), 3, 4, (), 3))    # ... and degree 1 here
@example(((1, 0, 0), 4, 10, (), 1))   # live for t = T2 alone
@example(((1, 1, 0), 4, 10, (), 1))   # a + b does not match
@example(((0, 0, 1), 1, 2, (), 2))    # T1 has degree b = 0
def test_row_mask_matches_loop_reference(key):
    assert mask_says_live(key) == reference_row_is_live(key)


def plan_sides(corners, extra, beta):
    """The sides the engine evaluates, in its order, as (b1, A, side, ce)."""
    plans = _interior_plan(corners, extra, beta[0] + beta[1])
    out = []
    for b1, _, s1, p1, p2 in _split_plan(beta):
        for a_part, _, _, lhs, rhs in plans[s1]:
            for name, plan in (("lhs", lhs), ("rhs", rhs)):
                if plan is not None and plan[1] >> p1 & plan[2] >> p2 & 1:
                    out.append((b1, a_part, name, plan[0]))
    return out


def reference_sides(corners, extra, beta):
    """Every side of the interior sum whose two rows the reference finds
    live, in (splitting, partition, lhs before rhs) order."""
    i, j, k, l = corners
    out = []
    for b1, b2 in splittings(beta):
        for a_part, b_part, _ in _multiset_splits(extra):
            excess = sum(CODIM[t] - 1 for t in a_part)
            for name, (x, y, z, w) in (("lhs", (i, j, k, l)), ("rhs", (i, k, j, l))):
                ce = 2 * (b1[0] + b1[1]) + 4 - excess - CODIM[x] - CODIM[y]
                if (0 <= ce <= 4 and reference_row_is_live((b1, x, y, a_part, ce))
                        and reference_row_is_live((b2, z, w, b_part, 4 - ce))):
                    out.append((b1, a_part, name, ce))
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(INDEX, INDEX, INDEX, INDEX), st.lists(INDEX, max_size=3),
       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
@example((4, 4, 1, 2), [4, 4], (0, 2, 1))   # a dead f-row facing an Unknown e-row
@example((4, 13, 1, 1), [], (1, 1, 2))
@example((0, 4, 4, 5), [4], (1, 1, 1))      # a T0 corner
def test_interior_plan_passes_exactly_the_live_sides(corners, extra, beta):
    extra = tuple(sorted(extra))
    assert plan_sides(corners, extra, beta) == reference_sides(corners, extra, beta)
