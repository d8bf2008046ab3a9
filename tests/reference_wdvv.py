"""The associativity instance as the engine first computed it.

``_instance_expr`` here visits every dual pair (e, f) of the pairing at
every splitting of the class and every labelled partition of the extra
insertions, builds CohVectors for the corner cups and for plain indices,
and looks every interior factor up afresh.  It is kept only as a
reference for ``tests/test_wdvv_reference.py``: the engine's loop skips
the terms the dimension axiom zeroes and must otherwise evaluate the same
invariants in the same order, with the same result.

``use_reference_loop(engine)`` makes one engine use this loop everywhere
(the WDVV reduction, the two-point solver and the public WDVV surface).
"""

import itertools
import types
from fractions import Fraction
from math import comb

from qhilb.chow import CohVector, cup, dual_groups
from qhilb.gw_engine import LinExpr, Unknown, splittings, val_mul


def _multiset_splits(extra):
    items = sorted(set(extra))
    mults = [extra.count(t) for t in items]
    out = []
    for picks in itertools.product(*(range(m + 1) for m in mults)):
        weight = 1
        a_part = []
        b_part = []
        for t, m, p in zip(items, mults, picks):
            weight *= comb(m, p)
            a_part.extend([t] * p)
            b_part.extend([t] * (m - p))
        out.append((tuple(a_part), tuple(b_part), weight))
    return out


def _add_term_expr(self, rel, sign, beta, raw, ctx):
    """rel += sign * (the expansion of the term with insertions ``raw``)."""
    vectors = [v if isinstance(v, CohVector) else CohVector.basis(v) for v in raw]
    for combo in itertools.product(*(v.support() for v in vectors)):
        coeff = Fraction(1)
        for v, i in zip(vectors, combo):
            coeff *= v.coords[i]
        factor, key = self._normalize(beta, tuple(sorted(combo)))
        if key is None:
            continue
        term = self._reduce_key(key, ctx)
        if term is None:  # the key stays a symbol
            term = LinExpr(coeffs={key: 1})
        elif not isinstance(term, LinExpr):
            term = LinExpr(poison=term) if isinstance(term, Unknown) else LinExpr(const=term)
        rel.add_scaled(term, sign * coeff * factor)


def _instance_expr(self, corners, extra, beta, ctx):
    i, j, k, l = corners
    basis = CohVector.basis
    rel = LinExpr()
    for sign, raw in ((1, [i, j, cup(basis(k), basis(l))]), (1, [cup(basis(i), basis(j)), k, l]),
                      (-1, [i, k, cup(basis(j), basis(l))]), (-1, [cup(basis(i), basis(k)), j, l])):
        _add_term_expr(self, rel, sign, beta, raw + list(extra), ctx)
    partitions = _multiset_splits(extra)
    interior = self._invariant
    const_acc = Fraction(0)
    for b1, b2 in splittings(beta):
        for a_part, b_part, weight in partitions:
            for e, fws in dual_groups():
                lhs1 = interior(b1, (i, j, e) + a_part)
                rhs1 = interior(b1, (i, k, e) + a_part)
                lhs1_zero = not isinstance(lhs1, Unknown) and lhs1 == 0
                rhs1_zero = not isinstance(rhs1, Unknown) and rhs1 == 0
                if lhs1_zero and rhs1_zero:
                    continue
                for f, w in fws:
                    coeff = weight * w
                    if not lhs1_zero:
                        term = val_mul(lhs1, interior(b2, (k, l, f) + b_part))
                        if isinstance(term, Unknown):
                            return LinExpr(poison=term)
                        const_acc += coeff * term
                    if not rhs1_zero:
                        term = val_mul(rhs1, interior(b2, (j, l, f) + b_part))
                        if isinstance(term, Unknown):
                            return LinExpr(poison=term)
                        const_acc -= coeff * term
    rel.const += const_acc
    return rel


def use_reference_loop(engine):
    """Make ``engine`` build every associativity instance with the loop above."""
    engine._instance_expr = types.MethodType(_instance_expr, engine)
    return engine
