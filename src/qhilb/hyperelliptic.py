"""Counts of hyperelliptic curves on the quadric from point-class invariants.

A genus-h hyperelliptic curve of bidegree (d1, d2) on the quadric, through
k general points and l general hyperelliptically-conjugate point pairs
(k + 3l = 2d1 + 2d2 + 1), corresponds to rational curves on the Hilbert
square of class (d2, d1, d1 + d2 - g - 1).  The translation between curve
counts E and the invariants I of the engine is the binomial transform

    I(g) = sum over h >= g of C(2h+2, h-g) * E(h),

an upper-triangular unimodular system (the diagonal coefficient is
C(2g+2, 0) = 1), inverted exactly by descending recursion from the top
genus d1 + d2 - 1.  Unknown invariants flow through to Unknown count
entries instead of aborting the table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Iterable, Tuple

from .chow import UsageError
from .gw_engine import Beta, Engine, Unknown, Value, below_first_bidegree


class HyperellipticQuery:
    """Bidegree (d1, d2) with l conjugate point pairs; k + 3l = r."""

    def __init__(self, d1: int, d2: int, l: int = 0):
        for name, value in (("d1", d1), ("d2", d2), ("l", l)):
            if type(value) is not int:
                raise UsageError("%s wants an int, got %r" % (name, value))
        if d1 < 1 or d2 < 1:
            raise UsageError("bidegree components must be positive")
        if l < 0:
            raise UsageError("the number of conjugate pairs must be >= 0")
        self.d1 = d1
        self.d2 = d2
        self.l = l
        self.r = 2 * d1 + 2 * d2 + 1
        self.k = self.r - 3 * l
        if self.k < 0:
            raise UsageError(
                "too many conjugate pairs: k = r - 3l = %d is negative" % self.k)

    @property
    def h_max(self) -> int:
        return self.d1 + self.d2 - 1

    def insertions(self):
        return (13,) * self.l + (4,) * self.k


def _check_genus(d1: int, d2: int, g: int) -> None:
    if type(g) is not int or not 0 <= g <= d1 + d2 - 1:
        raise UsageError("genus %r is outside 0..%d" % (g, d1 + d2 - 1))


def beta_of(d1: int, d2: int, g: int) -> Beta:
    """Curve class on the Hilbert square matching bidegree and genus."""
    _check_genus(d1, d2, g)
    return (d2, d1, d1 + d2 - g - 1)


def seed_vanishing(d1: int, d2: int) -> bool:
    """True when no smooth curve of this bidegree and positive-dimensional
    linear system exists, so every pure point-incidence count vanishes."""
    if d1 < 0 or d2 < 0:
        raise UsageError("bidegree components must be >= 0")
    return below_first_bidegree(d1, d2)


def forward_invariants(query: HyperellipticQuery, engine: Engine,
                       g_min: int = 0) -> Dict[int, Value]:
    """The invariant I(g) for every admissible genus from ``g_min`` on (a
    genus outside 0..h_max raises UsageError); Unknown flows through."""
    _check_genus(query.d1, query.d2, g_min)
    out: Dict[int, Value] = {}
    for g in range(g_min, query.h_max + 1):
        beta = beta_of(query.d1, query.d2, g)
        out[g] = engine.invariant(beta, query.insertions())
    return out


def _combination(terms: Iterable[Tuple[int, Value]]) -> Value:
    """The sum of c * v over the (c, v) terms, or the first Unknown v."""
    total = 0
    for c, v in terms:
        if isinstance(v, Unknown):
            return v
        total += c * v
    return total


def forward_counts(counts: Dict[int, Value], g_min: int, h_max: int) -> Dict[int, Value]:
    """The binomial transform itself: from counts back to invariants."""
    return {g: _combination((comb(2 * h + 2, h - g), counts.get(h, Fraction(0)))
                            for h in range(g, h_max + 1))
            for g in range(g_min, h_max + 1)}


def invert_counts(invariants: Dict[int, Value], d1: int, d2: int) -> "HyperellipticTable":
    """Solve the triangular system for the counts, top genus first.  The
    count at genus h needs the invariants at h and at every genus above,
    so the table stops above the highest genus without an invariant."""
    h_max = d1 + d2 - 1
    counts: Dict[int, Value] = {}
    for h in range(h_max, -1, -1):
        if h not in invariants:
            break
        counts[h] = _combination([(1, invariants[h])] + [
            (-comb(2 * h2 + 2, h2 - h), counts[h2]) for h2 in range(h + 1, h_max + 1)])
    return HyperellipticTable(d1, d2, counts)


class HyperellipticTable:
    """Counts by genus for one bidegree, possibly with Unknown entries."""

    def __init__(self, d1: int, d2: int, counts: Dict[int, Value]):
        self.d1 = d1
        self.d2 = d2
        self.counts = dict(sorted(counts.items()))

    def rows(self, l: int):
        """(d1, d2, l, h, count-or-None, note) per genus, ascending."""
        out = []
        for h, value in self.counts.items():
            if isinstance(value, Unknown):
                out.append((self.d1, self.d2, l, h, None, value.reason))
            else:
                out.append((self.d1, self.d2, l, h, value, ""))
        return out


def count_table(query: HyperellipticQuery, engine: Engine,
                g_min: int = 0) -> HyperellipticTable:
    """End to end: invariants for the query, then the exact inversion."""
    return invert_counts(forward_invariants(query, engine, g_min),
                         query.d1, query.d2)
