"""The series arithmetic of ``QSeries`` while every coefficient was a
``Fraction``.

``RefSeries`` stores its terms as Fractions and has the old ``+``, ``-``
(the sum with the negation), unary ``-``, ``*``, ``scale`` and rendering;
``accumulate_product`` is the old one, which starts each new monomial at
``Fraction(0)``.  It is kept only as a reference for
``tests/test_coeffring.py``: the int-where-integral series must
equal it and render the same.
"""

from fractions import Fraction

from qhilb.coeffring import monomial_str, rat_str

_ZERO = Fraction(0)


def accumulate_product(acc, x, y):
    c_max = x.c_max
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            e3 = m1[2] + m2[2]
            if e3 > c_max:
                continue
            m = (m1[0] + m2[0], m1[1] + m2[1], e3)
            acc[m] = acc.get(m, _ZERO) + c1 * c2


class RefSeries:
    __slots__ = ("terms", "c_max")

    def __init__(self, terms, c_max):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}
        self.c_max = c_max

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, _ZERO) + c
        return RefSeries(terms, self.c_max)

    def __neg__(self):
        return RefSeries({m: -c for m, c in self.terms.items()}, self.c_max)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefSeries):
            return self.scale(other)
        terms = {}
        accumulate_product(terms, self, other)
        return RefSeries(terms, self.c_max)

    def scale(self, x):
        if not x:
            return RefSeries({}, self.c_max)
        return RefSeries({m: c * x for m, c in self.terms.items()}, self.c_max)

    def __str__(self):
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
        return " + ".join(parts).replace("+ -", "- ")
