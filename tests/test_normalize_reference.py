"""The axioms through the cached plan against the loop they replaced.

``Engine._normalize`` splits the fundamental-class, dimension and divisor
axioms into a class-free plan, cached per raw insertion tuple, and a short
step at the class.  Both it and ``reference_normalize`` get the same
random (class, raw insertions): unsorted tuples of up to seven indices,
biased towards divisors, some holding T0, at a class the dimension axiom
accepts or at an arbitrary one (including classes where a stripped
divisor has degree zero), and shuffled tuples of divisors plus one other
insertion, where not every divisor is stripped.  They must return the
same (factor, key).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhilb.gw_engine import Engine, dimension_classes
from reference_normalize import reference_normalize

INDEX = st.one_of(st.integers(1, 3), st.integers(1, 13))
CLASSES = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))


@st.composite
def general(draw):
    ins = draw(st.lists(INDEX, max_size=7))
    if draw(st.integers(0, 7)) == 0:
        ins.insert(draw(st.integers(0, len(ins))), 0)
    ins = tuple(ins)
    fitting = dimension_classes(ins, 3)
    if fitting and draw(st.integers(0, 3)):
        return draw(st.sampled_from(fitting)), ins
    return draw(CLASSES), ins


@st.composite
def divisor_heavy(draw):
    # divisors and one other insertion, at a class where the dimension
    # fits: the only shapes where stripping stops before the divisors run
    # out, so that the order they are stripped in shows
    a = draw(st.integers(0, 1))
    b = draw(st.integers(0, 1 - a))
    other = 13 if a + b else draw(st.integers(4, 9))
    divisors = draw(st.lists(st.integers(1, 3), min_size=2, max_size=6))
    return (a, b, draw(st.integers(0, 3))), tuple(draw(st.permutations(divisors + [other])))


ENGINE = Engine(c_max=0)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(general(), divisor_heavy()))
@example(((0, 0, 1), (3, 5, 1)))      # raw order: T3 is stripped, not T1
@example(((1, 0, 1), (1, 13, 2)))     # the first stripped divisor has degree 0
@example(((1, 0, 1), (2, 13)))        # two insertions: nothing is stripped
@example(((1, 0, 2), (3, 2, 1, 13)))  # strips T3 and T2, keeps T1
@example(((1, 0, 1), (0, 5, 13)))     # T0, though the dimension fits
@example(((1, 0, 0), (4, 4)))         # the dimension does not fit
def test_normalize_matches_loop_reference(case):
    beta, ins = case
    got = ENGINE._normalize(beta, ins)
    assert got == reference_normalize(beta, ins)
    assert type(got[0]) is int
