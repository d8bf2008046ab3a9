"""Independent counts of one- and two-nodal curves (Kleiman-Piene).

On a smooth surface with a line bundle L, write a = L^2, b = L.K,
c = K^2 and d = c_2.  Kleiman and Piene (arXiv math/9903192) count the
delta-nodal curves in |L| through dim|L| - delta general points, for
delta <= 2, as

    N_1 = 3a + 2b + d,
    N_2 = (N_1^2 - 42a - 39b - 6c - 7d) / 2.

Both count every delta-nodal curve, reducible ones included, and both are
proved for L ample enough; the small bidegrees compared against the
engine are anchors, not a proof.  On P1 x P1, K = (-2, -2), K^2 = 8 and
c_2 = 4, and bidegree (d1, d2) has L^2 = 2 d1 d2 and L.K = -2 (d1 + d2).
On P2 with L = 4H (plane quartics) the formulas give the classical 27 and
225.  No code is shared with qhilb: this is the oracle side of the
genus-one comparisons.
"""

from __future__ import annotations

from typing import Tuple


def nodal_counts(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """(N_1, N_2) from L^2, L.K, K^2 and c_2."""
    n1 = 3 * a + 2 * b + d
    twice_n2 = n1 * n1 - 42 * a - 39 * b - 6 * c - 7 * d
    if twice_n2 % 2:
        raise ValueError("odd 2 N_2 = %d: not the invariants of a surface" % twice_n2)
    return n1, twice_n2 // 2


def quadric_nodal_counts(d1: int, d2: int) -> Tuple[int, int]:
    """(N_1, N_2) for curves of bidegree (d1, d2) on P1 x P1."""
    return nodal_counts(2 * d1 * d2, -2 * (d1 + d2), 8, 4)


def plane_nodal_counts(degree: int) -> Tuple[int, int]:
    """(N_1, N_2) for plane curves of the given degree: L = dH, K = -3H,
    K^2 = 9, c_2 = 3."""
    return nodal_counts(degree * degree, -3 * degree, 9, 3)
