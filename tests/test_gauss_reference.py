"""The two-point solver against the Fraction solver it replaced.

Both solvers get the same random systems: one to eight relations over one
to six variables, with small int coefficients and constants, some of them
Fractions (integral or not).  A relation may also be a combination of
earlier ones (a singular system) or such a combination with its constant
shifted (an inconsistent one).  They must return the same ``add``
results, raise ``ConsistencyError`` at the same relation, and solve to the
same values and undetermined variables; the engine's solver must also
keep every integral entry as an int.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhilb.gw_engine import ConsistencyError, LinExpr, _GaussSolver
from reference_gauss import _GaussSolver as ReferenceSolver

KEYS = [((1, 0, c), (5, 10 + c % 3)) for c in range(6)]

NUMBERS = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
NONZERO = NUMBERS.filter(bool)
KINDS = ("fresh",) * 4 + ("combination",) * 2 + ("inconsistent",)


@st.composite
def systems(draw):
    keys = KEYS[:draw(st.integers(1, len(KEYS)))]
    rels = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(KINDS)) if rels else "fresh"
        if kind == "fresh":
            coeffs = {k: draw(NUMBERS) for k in draw(st.lists(st.sampled_from(keys), unique=True))}
            const = draw(NUMBERS)
        else:
            coeffs, const = {}, 0
            for rix in draw(st.lists(st.integers(0, len(rels) - 1), min_size=1, max_size=3)):
                f = draw(NONZERO)
                for k, c in rels[rix][0].items():
                    coeffs[k] = coeffs.get(k, 0) + f * c
                const += f * rels[rix][1]
            if kind == "inconsistent":
                const += draw(NONZERO)
        rels.append(({k: c for k, c in coeffs.items() if c}, const))
    return keys, rels


def _add(solver, coeffs, const):
    try:
        return solver.add(LinExpr(const, coeffs))
    except ConsistencyError:
        return "inconsistent"


def _is_exact(v):
    return type(v) is int or v.denominator > 1


K0, K1, K2 = KEYS[:3]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(systems())
@example((KEYS[:2], [({K0: 2, K1: 4}, 6), ({K0: 1, K1: 2}, 3), ({K0: 3}, Fraction(3, 2))]))
@example((KEYS[:2], [({K0: 2, K1: 4}, 6), ({K0: 1, K1: 2}, 4)]))
@example((KEYS[:3], [({K0: Fraction(4, 2), K2: -3}, 1), ({K1: Fraction(1, 3)}, 0)]))
def test_solver_matches_fraction_reference(system):
    keys, rels = system
    new, ref = _GaussSolver(keys), ReferenceSolver(keys)
    for coeffs, const in rels:
        got = _add(new, coeffs, const)
        assert got == _add(ref, coeffs, const)
        if got == "inconsistent":
            return
        assert all(_is_exact(v) for r in new.pivots.values() for v in (r.const, *r.coeffs.values()))
    solution, undetermined = new.solve()
    assert (solution, undetermined) == ref.solve()
    assert all(_is_exact(v) for v in solution.values())
