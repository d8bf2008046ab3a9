"""Independent count of rational curves on the quadric P1 x P1.

N_(a,b) is the number of rational curves of bidegree (a, b) through
2a + 2b - 1 general points.  Associativity of the quantum product of
P1 x P1 itself (Kontsevich-Manin, arXiv hep-th/9402147, with the two
rulings meeting once, H1.H2 = 1) gives the recursion

    N_(a,b) = sum N_(a1,b1) N_(a2,b2) (a1 b2 + a2 b1) a1
                  * [b2 C(M, n1 - 1) - b1 C(M, n1)]

over nonzero (a1, b1) + (a2, b2) = (a, b), with n1 = 2 a1 + 2 b1 - 1 and
M = 2 a + 2 b - 4, from N_(1,0) = N_(0,1) = 1.  It gives 1, 12, 96, 640
and 3510 for (d, 1), (2, 2), (3, 2), (4, 2) and (3, 3).

Two general pairs of points on P1 are the fibres of exactly one g^1_2, so
a rational curve through the points counts once as a genus-0 curve with
two hyperelliptically conjugate pairs: E^2((d1, d2), 0) = N_(d1,d2).  No
code is shared with qhilb: this is the oracle side of that comparison.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def rational_count(a: int, b: int) -> int:
    """N_(a,b), the number of rational curves of bidegree (a, b) on P1 x P1
    through 2a + 2b - 1 general points."""
    if a < 0 or b < 0 or (a, b) == (0, 0):
        raise ValueError("bidegree must be nonzero and effective, got %r" % ((a, b),))
    if (a, b) in ((1, 0), (0, 1)):
        return 1
    m = 2 * a + 2 * b - 4
    total = 0
    for a1 in range(a + 1):
        for b1 in range(b + 1):
            a2, b2 = a - a1, b - b1
            if (a1, b1) == (0, 0) or (a2, b2) == (0, 0):
                continue
            n1 = 2 * a1 + 2 * b1 - 1
            weight = (a1 * b2 + a2 * b1) * a1 * (b2 * comb(m, n1 - 1) - b1 * comb(m, n1))
            if weight:
                total += rational_count(a1, b1) * rational_count(a2, b2) * weight
    return total
