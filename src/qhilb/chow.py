"""The classical cohomology ring of the Hilbert square of a quadric surface.

The ring is a 14-dimensional Q-algebra with fixed basis T0..T13, graded
(1,3,6,3,1) in codimensions 0..4, generated by the three divisor classes
T1, T2, T3 and one codimension-2 class T4.  The named basis elements are

    T0  = unit                      T5 = T1.T2      T10 = C2 + F
    T1, T2, T3 = divisors           T6 = T1.T1      T11 = C1 + F
    T4  = incidence class           T7 = T2.T2      T12 = C1 + C2 + F
                                    T8 = T1.T3      T13 = point class
                                    T9 = T2.T3

where C1, C2, F span the curve classes, normalised against the divisors by
C1.T2 = 1, C2.T1 = 1, F.T3 = 1 and all other pairings zero.  Curve classes
are identified with their Poincare-dual codimension-3 classes.

Each basis class is a word in the generators (``GENERATOR_WORDS``: T10 =
T2.T4, T11 = T1.T4, T12 = T3.T4, T13 = T4.T4).  A product of generators,
an exponent vector, is rewritten by the first classical (q = 0) relation
of the quantum presentation that fits; its integer coordinates are the
sum of its replacements', and the vectors no rule fits are exactly the
basis words.  Each vector is reduced once and memoized: the 196 basis
products take 65 reductions and share one class per monomial.  The cup
table is cross-checked in the tests against an independent model (the
Z/2-invariants of the blown-up product of two quadrics).  ``pairing()``
holds the pairing g and its exact inverse g_inv, inverted per graded
block (codimension k against 4 - k); sums over the inverse pairing read
g_inv through ``dual_groups()``; ``dual_basis()`` is its rows as classes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coeffring import Rational, rat_str

BASIS_SIZE = 14
CODIM = (0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 4)
GRADED_DIMS = (1, 3, 6, 3, 1)
_CODIM_INDICES = tuple(tuple(i for i, c in enumerate(CODIM) if c == k) for k in range(5))

# Action of the factor-swapping involution on basis indices.
IOTA = (0, 2, 1, 3, 4, 5, 7, 6, 9, 8, 11, 10, 12, 13)

# Every basis class as a monomial in the generators T1..T4.
GENERATOR_WORDS = (
    (), (1,), (2,), (3,), (4,),
    (1, 2), (1, 1), (2, 2), (1, 3), (2, 3),
    (2, 4), (1, 4), (3, 4), (4, 4),
)

BASIS_NAMES = tuple("T%d" % i for i in range(BASIS_SIZE))


class RingConsistencyError(RuntimeError):
    """An internal cross-check of the ring structure failed."""


class UsageError(ValueError):
    pass


class CohVector:
    """A class in the cohomology ring: 14 exact rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Rational]):
        if len(coords) != BASIS_SIZE:
            raise ValueError("expected %d coordinates" % BASIS_SIZE)
        self.coords = tuple(Fraction(c) for c in coords)

    @classmethod
    def zero(cls) -> "CohVector":
        return cls((0,) * BASIS_SIZE)

    @classmethod
    def basis(cls, i: int) -> "CohVector":
        c = [Fraction(0)] * BASIS_SIZE
        c[i] = Fraction(1)
        return cls(c)

    def __add__(self, other: "CohVector") -> "CohVector":
        return CohVector([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "CohVector") -> "CohVector":
        return CohVector([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "CohVector":
        return CohVector([-a for a in self.coords])

    def scale(self, x) -> "CohVector":
        x = Fraction(x)
        return CohVector([a * x for a in self.coords])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_homogeneous(self, k: int) -> bool:
        return all(c == 0 for i, c in enumerate(self.coords) if CODIM[i] != k)

    def support(self) -> List[int]:
        return [i for i, c in enumerate(self.coords) if c != 0]

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if c == 1:
                parts.append(BASIS_NAMES[i])
            elif c == -1:
                parts.append("-" + BASIS_NAMES[i])
            else:
                parts.append("%s %s" % (rat_str(c), BASIS_NAMES[i]))
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Normal-form rewriting of generator monomials
# ---------------------------------------------------------------------------
#
# A monomial is an exponent vector (n1, n2, n3, n4) on the generators.
# The rewrite rules are the q = 0 shadows of the seventeen quantum
# relations, plus the square of T4 giving the point class.  Each rule
# removes the given pattern and substitutes a linear combination.

Mono = Tuple[int, int, int, int]


def _deg(m: Mono) -> int:
    return m[0] + m[1] + m[2] + 2 * m[3]


# (name, pattern, replacement list of (coeff, pattern)); replacement
# patterns substitute for the removed pattern inside the ambient monomial.
REWRITE_RULES: Tuple = (
    ("sq3", (0, 0, 2, 0), ((1, (1, 0, 1, 0)), (1, (0, 1, 1, 0)), (-1, (1, 1, 0, 0)))),
    ("cube1", (3, 0, 0, 0), ()),
    ("cube2", (0, 3, 0, 0), ()),
    ("sq1-2", (2, 1, 0, 0), ((2, (1, 0, 0, 1)),)),
    ("sq2-1", (1, 2, 0, 0), ((2, (0, 1, 0, 1)),)),
    ("sq1-3", (2, 0, 1, 0), ((2, (1, 0, 0, 1)),)),
    ("sq2-3", (0, 2, 1, 0), ((2, (0, 1, 0, 1)),)),
    ("triple", (1, 1, 1, 0), ((2, (0, 0, 1, 1)),)),
    ("cube4", (0, 0, 0, 3), ()),
    ("sq4-1", (1, 0, 0, 2), ()),
    ("sq4-2", (0, 1, 0, 2), ()),
    ("sq4-3", (0, 0, 1, 2), ()),
    ("sq1-4", (2, 0, 0, 1), ()),
    ("sq2-4", (0, 2, 0, 1), ()),
    ("mix12-4", (1, 1, 0, 1), ((1, (0, 0, 0, 2)),)),
    ("mix13-4", (1, 0, 1, 1), ((1, (0, 0, 0, 2)),)),
    ("mix23-4", (0, 1, 1, 1), ((1, (0, 0, 0, 2)),)),
)


def _fits(pattern: Mono, m: Mono) -> bool:
    return all(p <= n for p, n in zip(pattern, m))


# Each basis class is its generator word; the rules leave exactly these
# exponent vectors irreducible, so they are the terminal monomials.
_WORD_EXPONENTS = tuple(tuple(w.count(g) for g in (1, 2, 3, 4)) for w in GENERATOR_WORDS)
_TERMINAL = {m: i for i, m in enumerate(_WORD_EXPONENTS)}

# The normalisation of the curve-class basis T10, T11, T12 against the
# divisors T1, T2, T3 that the rewriting realises: row e, column d gives
# the intersection number.
CURVE_DIVISOR_PAIRING = ((1, 0, 1), (0, 1, 1), (1, 1, 1))

# Integer coordinates of each exponent vector the default rewriting reduced.
_NORMAL_MEMO: Dict[Mono, Tuple[int, ...]] = {}


def _normal_coords(m: Mono, rng: Optional[random.Random] = None) -> Tuple[int, ...]:
    """Integer coordinates of the monomial m: rewrite it by the first rule
    that fits and add up the memoized coordinates of the replacements.
    With ``rng`` every step takes a random fitting rule instead (the
    confluence test), and the memo is neither read nor written."""
    if rng is None and m in _NORMAL_MEMO:
        return _NORMAL_MEMO[m]
    acc = [0] * BASIS_SIZE  # stays zero above degree four: vanishes by grading
    rules = [rule for rule in REWRITE_RULES if _fits(rule[1], m)]
    if _deg(m) <= 4 and rules:
        _, pat, repl = rules[0] if rng is None else rng.choice(rules)
        for c, rp in repl:
            sub = _normal_coords(tuple(n - p + r for n, p, r in zip(m, pat, rp)), rng)
            acc = [a + c * v for a, v in zip(acc, sub)]
    elif _deg(m) <= 4:
        if m not in _TERMINAL:
            raise RingConsistencyError("rewriting left the non-basis monomial %r" % (m,))
        acc[_TERMINAL[m]] = 1
    coords = tuple(acc)
    if rng is None:
        _NORMAL_MEMO[m] = coords
    return coords


@lru_cache(maxsize=None)
def _monomial_class(m: Mono) -> CohVector:
    """The one (immutable) class of the exponent vector m."""
    return CohVector(_normal_coords(m))


def normal_form(monomial: Iterable[int], rng: Optional[random.Random] = None) -> CohVector:
    """Express a product of generators (indices in {1,2,3,4}) in the basis.

    Monomials of total degree above four vanish for grading reasons.  The
    result is independent of the rewrite order; pass ``rng`` to randomise
    the order (exercised by the confluence test).
    """
    counts = [0, 0, 0, 0]
    for g in monomial:
        if g not in (1, 2, 3, 4):
            raise UsageError("generator index must be 1..4, got %r" % (g,))
        counts[g - 1] += 1
    return CohVector(_normal_coords(tuple(counts), rng))


# ---------------------------------------------------------------------------
# Cup product, integration, pairing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cup_basis(i: int, j: int) -> CohVector:
    """Cup product of two basis classes: the one shared class of their monomial."""
    return _monomial_class(tuple(a + b for a, b in zip(_WORD_EXPONENTS[i], _WORD_EXPONENTS[j])))


def cup(x: CohVector, y: CohVector) -> CohVector:
    """Bilinear extension of the basis cup table."""
    result = CohVector.zero()
    for i, ci in enumerate(x.coords):
        if ci == 0:
            continue
        for j, cj in enumerate(y.coords):
            if cj == 0:
                continue
            result = result + cup_basis(i, j).scale(ci * cj)
    return result


def integrate(x: CohVector) -> Rational:
    """Degree of the codimension-4 part: the coefficient of the point class."""
    return x.coords[13]


def involution(x: CohVector) -> CohVector:
    return CohVector([x.coords[IOTA[i]] for i in range(BASIS_SIZE)])


def divisor_degree(i: int, beta: Tuple[int, int, int]) -> int:
    """Degree of the divisor T_i on the curve class (a, b, c)."""
    a, b, c = beta
    if i == 1:
        return b
    if i == 2:
        return a
    if i == 3:
        return c
    raise UsageError("divisor index must be 1, 2 or 3, got %r" % (i,))


def _invert_matrix(mat: List[List[Fraction]]) -> List[List[Fraction]]:
    """Exact Gauss-Jordan inverse; raises on a singular matrix."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise RingConsistencyError("pairing matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class PairingMatrix:
    """The intersection pairing g and its exact inverse g_inv."""

    def __init__(self, g: List[List[Fraction]], g_inv: List[List[Fraction]]):
        self.g = g
        self.g_inv = g_inv


@lru_cache(maxsize=1)
def pairing() -> PairingMatrix:
    g = [[integrate(cup_basis(i, j)) for j in range(BASIS_SIZE)] for i in range(BASIS_SIZE)]
    for i in range(BASIS_SIZE):
        for j in range(BASIS_SIZE):
            if g[i][j] != g[j][i]:
                raise RingConsistencyError("pairing not symmetric at (%d,%d)" % (i, j))
            if g[i][j] != 0 and CODIM[i] + CODIM[j] != 4:
                raise RingConsistencyError("pairing not graded at (%d,%d)" % (i, j))
    # g pairs codimension k only with 4 - k: invert each block, placed transposed
    g_inv = [[Fraction(0)] * BASIS_SIZE for _ in range(BASIS_SIZE)]
    for k, rows in enumerate(_CODIM_INDICES):
        cols = _CODIM_INDICES[4 - k]
        block_inv = _invert_matrix([[g[i][j] for j in cols] for i in rows])
        for j, inv_row in zip(cols, block_inv):
            for i, w in zip(rows, inv_row):
                g_inv[j][i] = w
    return PairingMatrix(g, g_inv)


@lru_cache(maxsize=1)
def dual_groups() -> Tuple[Tuple[int, Tuple[Tuple[int, Fraction], ...]], ...]:
    """The nonzero entries of g_inv as (e, ((f, g^{ef}), ...)) per row e,
    both indices ascending.  The sums over e and f in the quantum product
    and the associativity equations run over these; grouping by e lets
    them evaluate the e-side factor once."""
    return tuple((e, tuple((f, w) for f, w in enumerate(row) if w))
                 for e, row in enumerate(pairing().g_inv))


@lru_cache(maxsize=1)
def scaled_dual_groups() -> Tuple[int, Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]]:
    """(D, groups): D is the common denominator of g_inv, and groups is
    ``dual_groups()`` with every weight g^{ef} scaled to the integer
    D * g^{ef}, so sums over the inverse pairing run in integers and
    divide by D once."""
    groups = dual_groups()
    denom = lcm(*(w.denominator for _, fws in groups for _, w in fws))
    return denom, tuple((e, tuple((f, int(w * denom)) for f, w in fws)) for e, fws in groups)


@lru_cache(maxsize=1)
def dual_basis() -> Tuple[CohVector, ...]:
    """dual(e) with integrate(cup(dual(e), T_g)) = delta_{eg}: row e of g_inv."""
    return tuple(CohVector(row) for row in pairing().g_inv)


# ---------------------------------------------------------------------------
# Golden-file format: "i j -> c0,...,c13" per basis pair
# ---------------------------------------------------------------------------

def cup_table_lines() -> List[str]:
    lines = []
    for i in range(BASIS_SIZE):
        for j in range(BASIS_SIZE):
            coords = ",".join(rat_str(c) for c in cup_basis(i, j).coords)
            lines.append("%d %d -> %s" % (i, j, coords))
    return lines


def parse_cup_table(lines: Iterable[str]) -> Dict[Tuple[int, int], CohVector]:
    table = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition("->")
        i, j = (int(t) for t in head.split())
        coords = [Fraction(t) for t in tail.strip().split(",")]
        table[(i, j)] = CohVector(coords)
    return table
