"""Exact scalar ring Q[q1,q2][[q3]] with a hard truncation in q3.

All arithmetic in this package is exact, with no floating point
anywhere.  A coefficient is an ``int`` when it is integral and a
``fractions.Fraction`` only when it is not, the engine's own convention;
a series stores an integral Fraction as its int.
A series keeps monomials q1^e1 q2^e2 q3^e3 with e3 <= c_max; products
silently discard the part above the truncation order, which is the only
finitary way to work in a power-series ring.  q1 and q2 are genuine
polynomial variables (no truncation needed: the grading bounds their
exponents in every computation we do).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

Rational = Fraction

QMonomial = Tuple[int, int, int]  # exponents of (q1, q2, q3)

_ZERO = 0


class TruncationMismatch(ValueError):
    """Two series with different c_max met in one operation."""


class TruncationExceeded(ValueError):
    """A coefficient above the truncation order was requested; it is not known."""


def rat_str(x: Rational) -> str:
    """Render ``p/q``, omitting ``/q`` when the denominator is one (an int
    or a Fraction)."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def monomial_str(m: QMonomial) -> str:
    parts = []
    for name, e in zip(("q1", "q2", "q3"), m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return " ".join(parts) if parts else "1"


def _exact_coeff(x):
    # a float, a string or a bool would be read as some other number
    if type(x) is not int and type(x) is not Fraction:
        raise ValueError("QSeries coefficients want an int or a Fraction, got %r" % (x,))
    return x


def _normal_terms(terms: Dict[QMonomial, Rational]) -> Dict[QMonomial, Rational]:
    """The nonzero terms, each integral Fraction as its int, so equal
    series have equal term dicts."""
    return {m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in terms.items() if c}


def accumulate_product(acc: Dict[QMonomial, Rational], x: "QSeries", y: "QSeries") -> None:
    """Add the terms of x * y (truncated at x's c_max) into ``acc``."""
    c_max = x.c_max
    y_terms = y.terms.items()
    for m1, c1 in x.terms.items():
        for m2, c2 in y_terms:
            e3 = m1[2] + m2[2]
            if e3 > c_max:
                continue
            m = (m1[0] + m2[0], m1[1] + m2[1], e3)
            acc[m] = acc.get(m, _ZERO) + c1 * c2


class QSeries:
    """An element of Q[q1,q2][[q3]] truncated at q3^c_max.

    Instances are immutable, so an operation may return one of its
    operands (``x + 0`` is ``x``).  Stored terms never have zero
    coefficient and never exceed the truncation; a coefficient is an int
    when it is integral and a Fraction only when it is not, and the
    constructors take only ints and Fractions.
    """

    __slots__ = ("terms", "c_max")

    def __init__(self, terms: Dict[QMonomial, Rational], c_max: int):
        if c_max < 0:
            raise ValueError("c_max must be >= 0")
        for m, coeff in terms.items():
            if m[0] < 0 or m[1] < 0 or m[2] < 0:
                raise ValueError("negative exponent in %r" % (m,))
            if m[2] > c_max:
                raise TruncationExceeded(
                    "monomial %s beyond truncation q3^%d" % (monomial_str(m), c_max)
                )
            _exact_coeff(coeff)
        self.terms = _normal_terms(terms)
        self.c_max = c_max

    @classmethod
    def _make(cls, terms: Dict[QMonomial, Rational], c_max: int) -> "QSeries":
        """Unchecked constructor for ring-operation results: the terms are
        ints and Fractions within the truncation already; zeros are dropped
        and integral Fractions stored as ints."""
        out = object.__new__(cls)
        out.terms = _normal_terms(terms)
        out.c_max = c_max
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, c_max: int) -> "QSeries":
        return cls({}, c_max)

    @classmethod
    def one(cls, c_max: int) -> "QSeries":
        return cls({(0, 0, 0): 1}, c_max)

    @classmethod
    def monomial(cls, m: QMonomial, c_max: int, coeff: Rational = 1) -> "QSeries":
        return cls({tuple(m): coeff}, c_max)

    @classmethod
    def scalar(cls, x: Rational, c_max: int) -> "QSeries":
        return cls({(0, 0, 0): x}, c_max)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "QSeries") -> None:
        if self.c_max != other.c_max:
            raise TruncationMismatch(
                "c_max mismatch: %d vs %d" % (self.c_max, other.c_max)
            )

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, _ZERO) + c
        return QSeries._make(terms, self.c_max)

    def __neg__(self) -> "QSeries":
        if not self.terms:
            return self
        return QSeries._make({m: -c for m, c in self.terms.items()}, self.c_max)

    def __sub__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, _ZERO) - c
        return QSeries._make(terms, self.c_max)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._check(other)
        terms: Dict[QMonomial, Rational] = {}
        accumulate_product(terms, self, other)
        return QSeries._make(terms, self.c_max)

    __rmul__ = __mul__

    def scale(self, x) -> "QSeries":
        if not _exact_coeff(x):
            return QSeries.zero(self.c_max)
        return QSeries._make({m: c * x for m, c in self.terms.items()}, self.c_max)

    def coeff(self, m: QMonomial) -> Rational:
        """Exact coefficient of the monomial; zero when absent.

        Asking beyond the truncation raises: that coefficient was thrown
        away and is genuinely not known.
        """
        if m[2] > self.c_max:
            raise TruncationExceeded(
                "coefficient of %s not retained at c_max=%d"
                % (monomial_str(m), self.c_max)
            )
        return self.terms.get(tuple(m), _ZERO)

    def truncate(self, c_max: int) -> "QSeries":
        """Re-truncate to a smaller (or equal) order."""
        if c_max > self.c_max:
            raise TruncationExceeded("cannot extend a truncated series")
        return QSeries({m: c for m, c in self.terms.items() if m[2] <= c_max}, c_max)

    # -- predicates and hashing --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Rational:
        return self.terms.get((0, 0, 0), _ZERO)

    def _key(self):
        return (self.c_max, tuple(sorted(self.terms.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            if m == (0, 0, 0):
                parts.append(rat_str(c))
            elif c == 1:
                parts.append(monomial_str(m))
            elif c == -1:
                parts.append("-" + monomial_str(m))
            else:
                parts.append("%s %s" % (rat_str(c), monomial_str(m)))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return "QSeries(%s; c_max=%d)" % (self, self.c_max)


def geometric_q3(c_max: int) -> QSeries:
    """q3 + q3^2 + ... + q3^c_max, the truncated tail sum over all curve
    multiples of the punctual fiber class."""
    return QSeries({(0, 0, c): 1 for c in range(1, c_max + 1)}, c_max)
