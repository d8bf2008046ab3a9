"""Genus-zero Gromov-Witten invariants of the Hilbert square of the quadric.

The engine stores a small table of seed invariants (the one- and two-point
values established by direct geometry), applies the standard axioms
(dimension, divisor, fundamental class), and computes everything else it
can by the associativity (WDVV) equations:

  * n-point invariants whose insertions avoid T4 reduce, by repeatedly
    factoring the lowest-codimension insertion through a divisor, to
    two-point invariants;
  * insertions of T4 are peeled off by dedicated instance shapes, at the
    price of recursing into smaller curve classes;
  * two-point invariants that are not seeded are obtained by collecting
    associativity relations in which they appear linearly and solving the
    system by exact Gaussian elimination.

Invariants the seeds and the recursion cannot reach (the pure T4-power
series beyond exponent three) are first-class ``Unknown`` results carrying
a reason, never silently zeroed.  The optional bidegree-vanishing rule
(off by default) seeds those powers with zero for small bidegrees, where
no curve of the corresponding type exists.

The engine keeps two public tables.  ``memo`` maps a normalized key
(class, sorted insertion tuple, as ``_normalize`` returns it) to its
value; a query in any order, divisors included, is normalized first and
scales the normalized key's value by the divisor factor, and a key an
axiom kills is 0 without a memo entry.  ``origin`` maps a derived
normalized key to a note saying how it was obtained (the two-point
solver, or the associativity instance that determined it); seed values
need no entry.

Every invariant is fixed by the involution that swaps the two factors,
<gamma>_(a,b,c) = <iota gamma>_(b,a,c).  The seeds and the two-point
solver store both orientations; a normalized key with three or more
insertions whose mirror is already a number in ``memo`` takes that
number instead of an associativity instance, with the mirror's origin
note plus " (involution image)", counted in ``stats["involution_hits"]``.
An Unknown mirror is never reused: the key is derived on its own, so
every Unknown keeps a reason of its own.

A private third table holds interior rows for the associativity sums: the
values of <x y t P>_b for every t of one codimension group, keyed by
(b, x, y, P, codim) with x, y, P in the raw order the sum looks them up.
A row is always whole: the first sum that needs it looks every entry up
in t order and stores the nonzero and Unknown ones as a dict t -> value.
No memo value changes once written (the two-point solver stores only keys
the memo lacked, or a mirror's equal value, and solves a class after its
proper sub-classes, so no solve is re-entered), so a stored row stays
equal to what its lookups would return.  Rows are the one table keyed
in raw order, because the divisor axiom strips divisors in the tuple's
order: two orders of the same insertions can normalize to different
keys, with different Unknown reasons.  Each side of a sum (one split
and partition, one corner pairing) contracts its e-row and f-row in one
(e, f) loop in integers, D times the inverse pairing, and each instance
divides its interior sum by D once.

A row is dead when every entry is an exact zero: it is stored as the
empty row, or the fundamental-class, dimension or divisor axiom zeroes
<x y t P>_b for every t of its group (a codimension-0 group is T0 alone;
often the first divisor stripped has degree 0 on b).  The axioms read b
only through a+b and its nonzero pattern (which of a, b, c are not 0), so
the axioms' verdict is judged per shape, not per row: ``_row_mask`` gives
it for every pattern at once, cached per (x, y, P, codim, a+b), and
``_interior_plan``, cached per (corners, extra, a+b), keeps for each
a1+b1 only the partitions with a side that can be live, with each side's
codimension and row masks.  A side whose masks fail at the patterns of
its splitting (``_split_plan``) builds no row key, and rows the axioms
make dead are never stored.  A side with a dead row, or whose e-row holds
only zeros, is exactly 0, even against an Unknown factor, and its f-row
is not looked up.  A term that multiplies an Unknown by a nonzero value
or by another Unknown makes the instance Unknown: each side reports its
first such term in (e, f) order, and the earliest (e, f, side) of the
split and partition wins, the (ij|kl) side first.  That is the Unknown a
loop over every (e, f) would meet first, so values, every Unknown reason
and ``wdvv_residual`` are the same as when every side is evaluated.

Keys of one or two insertions follow one contract.  By the dimension
axiom a two-point key has a+b <= 2 and a one-point key a+b <= 1.  One
rule, ``_open_two_point``, says which of them stay symbolic: those
neither derived (each derived one has an ``origin`` note) nor seeded.
The two-point solver takes its unknowns by that rule, and
``wdvv_instance`` keeps the keys it picks open, so a symbolic reduction
finds every other such key in the memo or the seeds.  A numeric
reduction that misses the memo on an unseeded one at a class with
c <= c_max first solves that class's whole two-point table
(``_ensure_two_point``), once, after the tables of all its proper
sub-classes; a solve's interior rows sit at proper sub-classes, so no
solve is re-entered.  A one-point key is never solved for, so an
unseeded one (a seed rule disabled) is Unknown, "not determined by the
shipped seeds"; a key at c > c_max is Unknown, "exceeds c_max".

The four boundary terms of an associativity instance are compiled once
per (corners, extra) shape by the cached ``_boundary_terms``: the cup
products are expanded into (sorted insertions, signed coefficient) pairs
that do not depend on the class, in the order the residual visits them,
so recursion order and the first Unknown do not change.  Equal insertion
tuples are never merged, because a key whose coefficients cancel must
still be reduced: if it is Unknown, its poison still reaches the residual.
Each instance then normalizes and reduces the compiled terms at its class
and folds them, and the interior sum, into one fresh ``LinExpr``.  The
axioms' class-free part is cached per raw insertion tuple by
``_normal_plan`` (T0, the a+b the dimension axiom wants, the divisors to
strip, the sorted rest), so normalizing at a class compares a+b and
multiplies the stripped divisors' degrees.

Integral values travel as Python ints: memo entries, seed values, row
entries, the compiled boundary coefficients, the axioms' divisor factors,
and ``LinExpr`` constants and coefficients, the pivot rows of the
two-point ``_GaussSolver`` included (each a ``LinExpr``, reduced with
``add_scaled``).  A ``Fraction`` is kept only for a value that
is not integral (the fibre-class seeds 4/c^2, a non-integral seed
override or solver value); ``_exact`` turns an integral Fraction back
into an int where values are stored, and ``_quotient`` divides without
building a Fraction when the quotient is an int.  So "is this a number"
is always asked as "is this not an Unknown".  The public results are
Fractions again: ``Engine.invariant``, ``wdvv_residual`` and
``derive_two_point_table`` convert on the way out, and the hyperelliptic
tables are built from ``invariant``.  ``Engine.invariant_value`` hands out
the engine's own number for a sorted tuple of basis indices; the quantum
product sums those in integers and builds each ``QSeries`` coefficient
once, an int when it is integral.

Values and keys are immutable; all three tables follow a single-writer
contract (concurrent reads are fine, writes must be serialized by the
caller).  Everything here is deterministic and single-threaded by default.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import chow
from .chow import (
    CODIM,
    IOTA,
    CohVector,
    UsageError,
    cup_basis,
    divisor_degree,
    scaled_dual_groups,
)

Beta = Tuple[int, int, int]
Insertions = Tuple[int, ...]
Key = Tuple[Beta, Insertions]


class Unknown:
    """An invariant the shipped seeds cannot reach."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return "Unknown(%s)" % self.reason

    def __eq__(self, other):
        if not isinstance(other, Unknown):
            return NotImplemented
        return self.reason == other.reason

    def __hash__(self):
        return hash(("Unknown", self.reason))


# What the memo (and every seed, row entry, LinExpr term and solver entry)
# holds: an int when the value is integral, a Fraction only when it is not,
# or an Unknown.  Fractions remain for non-integral values, for the public
# results (see ``_public``) and in the quantum product's QSeries.
Value = Union[int, Fraction, Unknown]


class ConsistencyError(RuntimeError):
    """The WDVV system or a seed contradicted itself; fatal."""


def _exact(v: Value) -> Value:
    """An integral Fraction as its int numerator; an int, a non-integral
    Fraction or an Unknown as it is."""
    if isinstance(v, Unknown) or v.denominator != 1:
        return v
    return v.numerator


def _quotient(x: Union[int, Fraction], d: Union[int, Fraction]) -> Union[int, Fraction]:
    """x / d exactly (d nonzero): an int when it is integral, with no
    Fraction built when both are ints and d divides x."""
    if type(x) is int and type(d) is int and not x % d:
        return x // d
    return _exact(Fraction(x, d))


def _public(v: Value) -> Union[Fraction, Unknown]:
    """A value as the public API returns it: a number as a Fraction."""
    return v if isinstance(v, Unknown) else Fraction(v)


def val_mul(x: Value, y: Value) -> Value:
    """Product with annihilation: an exact zero absorbs an Unknown."""
    if not isinstance(x, Unknown) and x == 0:
        return 0
    if not isinstance(y, Unknown) and y == 0:
        return 0
    if isinstance(x, Unknown):
        return x
    if isinstance(y, Unknown):
        return y
    return x * y


# ---------------------------------------------------------------------------
# Curve classes
# ---------------------------------------------------------------------------

def is_effective(beta: Beta) -> bool:
    return all(t >= 0 for t in beta)


def beta_key(beta: Beta) -> Tuple[int, int, int]:
    a, b, c = beta
    return (a + b, c, a)


def iota_beta(beta: Beta) -> Beta:
    a, b, c = beta
    return (b, a, c)


@lru_cache(maxsize=None)
def iota_insertions(ins: Insertions) -> Insertions:
    return tuple(sorted(IOTA[i] for i in ins))


def expected_dim(beta: Beta, n: int) -> int:
    a, b, _ = beta
    return 2 * a + 2 * b + 1 + n


def dimension_check(beta: Beta, insertions: Sequence[int]) -> bool:
    """Total insertion codimension must match the expected dimension."""
    return sum(CODIM[i] for i in insertions) == expected_dim(beta, len(insertions))


def dimension_classes(insertions: Sequence[int], c_max: int) -> List[Beta]:
    """The nonzero effective classes (a, b, c) with c <= c_max at which the
    insertions pass the dimension axiom, in (a, c) order: a + b is fixed
    by expected_dim, so there is none when the excess codimension is
    negative or odd."""
    double = sum(CODIM[i] for i in insertions) - len(insertions) - 1
    if double < 0 or double % 2:
        return []
    s = double // 2
    return [(a, s - a, c) for a in range(s + 1) for c in range(c_max + 1)
            if (a, s - a, c) != (0, 0, 0)]


def below_first_bidegree(a: int, b: int) -> bool:
    """True below the first admissible bidegree, where no smooth curve
    moves in a positive-dimensional linear system."""
    return a * b - a - b - 1 < 0


@lru_cache(maxsize=None)
def splittings(beta: Beta) -> Tuple[Tuple[Beta, Beta], ...]:
    """All decompositions into two nonzero effective classes.  Cached, so
    every caller (and every interior row key) shares the class tuples."""
    a, b, c = beta
    out = []
    for a1 in range(a + 1):
        for b1 in range(b + 1):
            for c1 in range(c + 1):
                b1_ = (a1, b1, c1)
                b2_ = (a - a1, b - b1, c - c1)
                if b1_ != (0, 0, 0) and b2_ != (0, 0, 0):
                    out.append((b1_, b2_))
    return tuple(out)


@lru_cache(maxsize=None)
def _multiset_splits(extra: Insertions) -> Tuple[Tuple[Insertions, Insertions, int, int], ...]:
    """Sub-multisets A of ``extra`` with the count of labelled partitions
    realising the split (the associativity sum runs over labelled ones) and
    the excess codimension sum(codim(t) - 1 for t in A).  Cached like
    ``splittings``."""
    items = sorted(set(extra))
    mults = [extra.count(t) for t in items]
    out = []
    for picks in itertools.product(*(range(m + 1) for m in mults)):
        weight = 1
        a_part: List[int] = []
        b_part: List[int] = []
        for t, m, p in zip(items, mults, picks):
            weight *= comb(m, p)
            a_part.extend([t] * p)
            b_part.extend([t] * (m - p))
        excess = sum(CODIM[t] - 1 for t in a_part)
        out.append((tuple(a_part), tuple(b_part), weight, excess))
    return tuple(out)


@lru_cache(maxsize=None)
def _normal_plan(ins: Insertions) -> Optional[Tuple[int, Insertions, Insertions]]:
    """The class-free part of ``Engine._normalize`` for an insertion tuple
    in any order: None when it holds T0 (fundamental-class axiom), else
    (2(a+b) as the dimension axiom requires, the divisors the divisor
    axiom strips, the sorted rest).  Divisors are taken in the tuple's
    order and only while at least three insertions remain: one- and
    two-point values are primitive inputs here.  Cached like
    ``splittings``."""
    if 0 in ins:
        return None
    work = list(ins)
    divisors = []
    while len(work) >= 3:
        d = next((i for i in work if CODIM[i] == 1), None)
        if d is None:
            break
        work.remove(d)
        divisors.append(d)
    return (sum(CODIM[i] for i in ins) - len(ins) - 1, tuple(divisors),
            tuple(sorted(work)))


# The basis indices of each codimension 0..4 in index order: the t of an
# interior row's group.
_CODIM_GROUPS = tuple(tuple(t for t in range(chow.BASIS_SIZE) if CODIM[t] == c) for c in range(5))

# A class's nonzero pattern: bit n is set when its n-th component (a, b or
# c) is not 0.  The axioms read a class only through a+b and this pattern,
# since each divisor's degree is one component (``chow.divisor_degree``).
# _DIVISOR_BIT maps a divisor to the bit of the component its degree reads,
# and _SUPERSETS[need] is the mask of the patterns holding every bit of need.
_DIVISOR_BIT = {d: sum(1 << n for n, unit in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
                       if divisor_degree(d, unit))
                for d in (1, 2, 3)}
_SUPERSETS = tuple(sum(1 << p for p in range(8) if p & need == need) for need in range(8))


def _pattern(beta: Beta) -> int:
    return sum(1 << n for n, x in enumerate(beta) if x)


@lru_cache(maxsize=None)
def _split_plan(beta: Beta) -> Tuple[Tuple[Beta, Beta, int, int, int], ...]:
    """``splittings(beta)`` as (b1, b2, a1+b1, pattern of b1, pattern of
    b2), in the same order.  Cached like ``splittings``."""
    return tuple((b1, b2, b1[0] + b1[1], _pattern(b1), _pattern(b2))
                 for b1, b2 in splittings(beta))


@lru_cache(maxsize=None)
def _row_mask(x: int, y: int, part: Insertions, codim: int, double: int) -> int:
    """The axioms' verdict on the interior rows (b, x, y, P, codim) with
    2(a+b) = ``double``: bit p is set when, at a class of nonzero pattern
    p, ``Engine._normalize`` leaves <x y t P>_b for some t of the group
    (the row is live).  Cached like ``splittings``."""
    mask = 0
    for t in _CODIM_GROUPS[codim]:
        plan = _normal_plan((x, y, t) + part)
        if plan is not None and plan[0] == double:
            need = 0
            for d in plan[1]:
                need |= _DIVISOR_BIT[d]
            mask |= _SUPERSETS[need]
    return mask


def _side_plan(x: int, y: int, a_part: Insertions, z: int, w: int, b_part: Insertions,
               ce: int, s1: int, s2: int) -> Optional[Tuple[int, int, int]]:
    """One side of an interior sum, <x y e A>_{b1} against <z w f B>_{b2}
    with a1+b1 = s1 and a2+b2 = s2: (ce, e-row mask, f-row mask), or None
    when it is dead at every class.  A codimension-0 group is T0 alone, so
    only ce in 1..3 can be live."""
    if not 1 <= ce <= 3:
        return None
    e_mask = _row_mask(x, y, a_part, ce, 2 * s1)
    f_mask = _row_mask(z, w, b_part, 4 - ce, 2 * s2)
    return (ce, e_mask, f_mask) if e_mask and f_mask else None


@lru_cache(maxsize=None)
def _interior_plan(corners: Tuple[int, int, int, int], extra: Insertions, s: int):
    """The interior sum of an associativity instance at the classes with
    a+b = s: for each a1+b1 = 0..s, the partitions (A, B, weight, lhs,
    rhs) of ``extra``, in ``_multiset_splits`` order, with a side that
    the axioms leave live at some class; lhs is the (ij|kl) side, rhs the
    (ik|jl) side, each as ``_side_plan`` gives it.  Cached like
    ``splittings``; the class's nonzero patterns enter in the sum."""
    i, j, k, l = corners
    out = []
    for s1 in range(s + 1):
        live = []
        for a_part, b_part, weight, excess in _multiset_splits(extra):
            # By the dimension axiom <i j e A>_{b1} vanishes unless
            # codim(e) = 2 a1 + 2 b1 + 4 - excess(A) - codim(i) - codim(j),
            # so only one codimension group of e can contribute on each
            # side (one for <i j e A>, one for <i k e A>).  The pairing
            # is graded, so each f of that group has codim 4 - codim(e).
            base = 2 * s1 + 4 - excess - CODIM[i]
            lhs = _side_plan(i, j, a_part, k, l, b_part, base - CODIM[j], s1, s - s1)
            rhs = _side_plan(i, k, a_part, j, l, b_part, base - CODIM[k], s1, s - s1)
            if lhs or rhs:
                live.append((a_part, b_part, weight, lhs, rhs))
        out.append(tuple(live))
    return tuple(out)


# An interior row: the values of <x y t P>_b over one whole codimension
# group of t, as a dict t -> value holding the nonzero and Unknown values in
# t order.  Only rows of sides the axioms leave live (``_interior_plan``)
# are stored; every such row that looks up only zeros is the one constant
# _EMPTY_ROW (never mutated).
_Row = Dict[int, Value]
_EMPTY_ROW: _Row = {}


def _make_row(values: Iterable[Tuple[int, Value]]) -> _Row:
    return {t: _exact(v) for t, v in values if isinstance(v, Unknown) or v} or _EMPTY_ROW


def _contract(e_row: _Row, f_row: _Row):
    """D times the sum over (e, f) of e_row[e] g^{ef} f_row[f]; or, when
    a term multiplies an Unknown by a nonzero value or by another Unknown,
    (e, f, that Unknown) for the first such term in (e, f) order, the
    e-row's Unknown first as ``val_mul`` picks it.  A term with an exact
    zero factor is 0, even against an Unknown."""
    groups = scaled_dual_groups()[1]
    total = 0
    for e, v in e_row.items():
        for f, w in groups[e][1]:
            p = f_row.get(f)
            if p is None:
                continue
            if isinstance(v, Unknown):
                return e, f, v
            if isinstance(p, Unknown):
                return e, f, p
            total += v * w * p
    return total


def check_insertions(insertions: Sequence, vectors: bool) -> bool:
    """Raise UsageError unless the insertions are a sequence of basis
    indices 0..13 (or, with ``vectors``, CohVectors); return whether every
    one is a basis index."""
    # the ABC check is slow next to a memo hit, so lists and tuples skip it
    if type(insertions) not in (list, tuple) and not isinstance(insertions, Sequence):
        raise UsageError("insertions want a sequence of basis indices, got %r" % (insertions,))
    indices = True
    for x in insertions:
        if type(x) is int and 0 <= x < chow.BASIS_SIZE:
            continue
        if not (vectors and isinstance(x, CohVector)):
            raise UsageError("insertions want basis indices 0..%d%s, got %r"
                             % (chow.BASIS_SIZE - 1, " or CohVectors" if vectors else "", x))
        indices = False
    return indices


def _checked_class(beta: Sequence[int]) -> Beta:
    """The class of a public query as a tuple, after checking it is three
    non-negative ints, not all zero.  Raises UsageError, also for a class
    that is not a sequence."""
    try:
        a, b, c = beta
    except (TypeError, ValueError):
        pass
    else:
        if (type(a) is int and type(b) is int and type(c) is int
                and a >= 0 and b >= 0 and c >= 0 and (a or b or c)):
            return a, b, c
    raise UsageError("invariants want a nonzero effective class, got %r" % (beta,))


def _checked_key(beta: Sequence[int], insertions: Sequence, vectors: bool) -> Beta:
    """The class of a public query as ``_checked_class`` returns it, after
    checking the insertions as ``check_insertions`` does.  Raises
    UsageError."""
    beta = _checked_class(beta)
    check_insertions(insertions, vectors)
    return beta


def _checked_instance(corners: Tuple[int, int, int, int], extra: Sequence[int],
                      beta: Sequence[int]) -> Tuple[Beta, Insertions]:
    """The class and the sorted extra insertions of a public WDVV instance,
    after checking them as ``_checked_key`` does, with ``extra`` a
    sequence.  Raises UsageError."""
    if not isinstance(extra, Sequence):
        raise UsageError("extra insertions want a sequence of basis indices, got %r" % (extra,))
    return _checked_key(beta, corners + tuple(extra), vectors=False), tuple(sorted(extra))


def _expand(insertions: Iterable) -> Iterator[Tuple[Insertions, Union[int, Fraction]]]:
    """Multilinear expansion of insertions given as basis indices or
    CohVectors: (sorted basis indices, coefficient) per term.  A plain
    index is the single term (index, 1); no CohVector is built for it."""
    choices = [
        [(t, c) for t, c in enumerate(x.coords) if c] if isinstance(x, CohVector)
        else ((int(x), 1),)
        for x in insertions
    ]
    for combo in itertools.product(*choices):
        coeff = 1
        for _, c in combo:
            coeff *= c
        yield tuple(sorted(t for t, _ in combo)), coeff


@lru_cache(maxsize=None)
def _boundary_terms(corners: Tuple[int, int, int, int],
                    extra: Insertions) -> Tuple[Tuple[Insertions, Union[int, Fraction]], ...]:
    """The four boundary terms of an associativity instance, expanded:
    (sorted insertions, signed coefficient) in the order the residual
    visits them, +[i, j, k.l], +[i.j, k, l], -[i, k, j.l], -[i.k, j, l]
    (each followed by ``extra``), each in ``_expand`` order.  Equal
    insertion tuples are never merged: a key whose coefficients cancel is
    still reduced, so an Unknown it carries still poisons the residual.
    Cached like ``splittings``; the class only enters at normalization."""
    i, j, k, l = corners
    out = []
    for sign, raw in ((1, (i, j, cup_basis(k, l))), (1, (cup_basis(i, j), k, l)),
                      (-1, (i, k, cup_basis(j, l))), (-1, (cup_basis(i, k), j, l))):
        out.extend((ins, _exact(sign * coeff)) for ins, coeff in _expand(raw + extra))
    return tuple(out)


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------

_CIT_FIBER = "one-point values on the punctual fiber classes (obstruction-bundle computation)"
_CIT_RULED = "one- and two-point values on the section-plus-fiber classes"
_CIT_ASSOC_TABLE = "two-point table obtained from generator associativity"
_CIT_WORKED = "two-point values worked out from the curve geometry"
_CIT_DIAGONAL_CLASSES = "three-point vanishing for section classes with more than two fiber components"
_CIT_POINTLINE = "point-class two-point values on the balanced class from the incidence lemma"
_CIT_T4_LOW = "pure incidence-class invariants vanish at exponents one and three"
_CIT_BIDEGREE = "bidegree vanishing: no curves below the first admissible bidegree"
_CIT_DRESSED = "divisor dressing of: "


# a seed value, and a class component or basis index (after one optional
# T), as ``_seed_line`` writes them: in decimal digits only
_SEED_NUMBER = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_SEED_DIGITS = re.compile(r"[0-9]+")


def _seed_line(key: Key, entry: Tuple[Value, str]) -> str:
    """One "a,b,c | i1 i2 ... | p/q | citation" line, as load_overrides reads."""
    (a, b, c), ins = key
    value, cit = entry
    return "%d,%d,%d | %s | %s | %s" % (a, b, c, " ".join(str(i) for i in ins), value, cit)


class SeedTable:
    """Shipped seed invariants: explicit entries plus closed-form rules.

    The table is closed under the factor-swapping involution by
    construction: ``add`` stores every explicit entry in both
    orientations, and ``lookup`` maps a key with a < b to its image before
    it consults the rules, so each rule states only the a >= b family.
    Every entry satisfies the dimension axiom.  Rules may be disabled by
    name (used by the independence check, which re-derives the
    associativity table instead of consulting it); a name that is not a
    rule's, or a bare string, is a UsageError.
    """

    def __init__(self, enable_bidegree_vanishing: bool = False,
                 disabled_rules: Iterable[str] = ()):
        self.enable_bidegree_vanishing = enable_bidegree_vanishing
        if isinstance(disabled_rules, str):
            raise UsageError("disabled seed rules want a collection of rule names, got %r"
                             % (disabled_rules,))
        self.disabled_rules = frozenset(disabled_rules)
        names = [name for name, _, _ in _SEED_RULES]
        unknown = sorted(self.disabled_rules.difference(names))
        if unknown:
            raise UsageError("unknown seed rule %s; the rules are %s"
                             % (", ".join(unknown), ", ".join(names)))
        # the enabled rules that can fire at each insertion count, in order
        rules = [(arity, rule) for name, arity, rule in _SEED_RULES
                 if name not in self.disabled_rules]
        self._any_count = tuple(rule for arity, rule in rules if arity is None)
        self._by_count = {n: tuple(rule for arity, rule in rules if arity is None or n in arity)
                          for n in {n for _, arity, _ in _SEED_RULES for n in arity or ()}}
        self.explicit: Dict[Key, Tuple[Value, str]] = {}

    # -- explicit entries --------------------------------------------------

    def add(self, beta: Beta, insertions: Sequence[int], value, citation: str) -> None:
        """Store <insertions>_beta = value and its factor-swap image.  Bad
        input (as ``Engine.invariant`` judges it, off the dimension axiom, or
        a value not an int or Fraction) is a UsageError, a conflict a
        ConsistencyError; a refused call stores nothing."""
        beta = _checked_class(beta)
        check_insertions(insertions, vectors=False)
        ins = tuple(sorted(insertions))
        if not dimension_check(beta, ins):
            raise UsageError(
                "seed <%s>_%r violates the dimension axiom"
                % (" ".join(chow.BASIS_NAMES[i] for i in ins), beta)
            )
        if type(value) not in (int, Fraction):
            raise UsageError("seed values want an int or a Fraction, got %r" % (value,))
        value = _exact(value)
        key = (beta, ins)
        mkey = (iota_beta(beta), iota_insertions(ins))
        old = self.explicit.get(key)
        if old is not None and old[0] != value:
            raise ConsistencyError("conflicting seed for %r: %s vs %s" % (key, old[0], value))
        mold = self.explicit.get(mkey)
        if mold is not None and mold[0] != value:
            raise ConsistencyError("seed not involution-closed at %r" % (mkey,))
        self.explicit[key] = (value, citation)
        self.explicit[mkey] = (value, citation)

    def load_overrides(self, lines: Iterable[str]) -> int:
        """Load "a,b,c | i1 i2 ... | p/q | citation" lines; returns count.
        A class component is decimal digits, an index decimal digits after
        an optional T, and a value an int or p/q in decimal digits, as
        ``export_lines`` writes them.  A malformed or conflicting line
        raises UsageError naming it, and so does a bare string (it would be
        read one character a line)."""
        if isinstance(lines, str):
            raise UsageError("seed overrides want a collection of lines, got %r" % (lines,))
        n = 0
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 4:
                raise UsageError("bad seed line: %r" % raw)
            try:
                components = [t.strip() for t in parts[0].split(",")]
                indices = [t.removeprefix("T") for t in parts[1].split()]
                if not (all(map(_SEED_DIGITS.fullmatch, components + indices))
                        and _SEED_NUMBER.fullmatch(parts[2])):
                    raise ValueError(raw)
                beta = tuple(map(int, components))
                ins = tuple(map(int, indices))
                value = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise UsageError("bad number in seed line: %r" % raw) from None
            if not all(0 <= i < chow.BASIS_SIZE for i in ins):
                raise UsageError("basis index out of range in seed line: %r" % raw)
            try:
                self.add(beta, ins, value, parts[3])
            except (UsageError, ConsistencyError) as exc:
                raise UsageError("%s (seed line %r)" % (exc, raw)) from None
            n += 1
        return n

    def export_lines(self) -> List[str]:
        return [_seed_line(*item) for item in sorted(self.explicit.items())]

    def materialize(self, c_max: int) -> Dict[Key, Tuple[Value, str]]:
        """Explicit entries plus every rule-based seed with q3-order up to
        c_max, as a concrete table (used by export and for inspection)."""
        table: Dict[Key, Tuple[Value, str]] = dict(self.explicit)
        candidates: List[Key] = []
        for c in range(c_max + 1):
            for i in range(4, 10):
                candidates.append(((0, 0, c), (i,)))
            for ab in ((1, 0), (0, 1)):
                beta = (ab[0], ab[1], c)
                candidates.append((beta, (13,)))
                candidates.append((beta, (4, 4, 4)))
                for e in (10, 11, 12):
                    for i in (4, 5, 6, 7):
                        candidates.append((beta, tuple(sorted((i, e)))))
            candidates.append(((1, 1, 1), (10, 13)))
            candidates.append(((1, 1, 1), (11, 13)))
            candidates.append(((1, 1, 1), (12, 13)))
        for beta, ins in candidates:
            if beta == (0, 0, 0) or not dimension_check(beta, ins):
                continue
            hit = self.lookup(beta, ins)
            if hit is not None and (beta, ins) not in table:
                table[(beta, ins)] = hit
        return table

    def materialized_lines(self, c_max: int) -> List[str]:
        return [_seed_line(*item) for item in sorted(self.materialize(c_max).items())]

    # -- rule lookup ---------------------------------------------------------

    def lookup(self, beta: Beta, ins: Insertions) -> Optional[Tuple[Value, str]]:
        """Seed value for a normalized, dimension-consistent key, or None."""
        hit = self.explicit.get((beta, ins))
        if hit is not None:
            return hit
        if beta[0] < beta[1]:
            beta, ins = iota_beta(beta), iota_insertions(ins)
        for rule in self._by_count.get(len(ins), self._any_count):
            got = rule(self, beta, ins)
            if got is not None:
                return got
        return None


def _rule_fiber_one_point(table, beta, ins):
    # one-point invariants on the multiple fiber classes
    a, b, c = beta
    if (a, b) != (0, 0) or len(ins) != 1:
        return None
    i = ins[0]
    if i in (8, 9):
        return (_quotient(4, c * c), _CIT_FIBER)
    if i in (4, 5, 6, 7):
        return (0, _CIT_FIBER)
    return None


def _rule_ruled_classes(table, beta, ins):
    # <T13> and <T4, codim-3> on the (1,0,c) family
    a, b, c = beta
    if (a, b) == (1, 0):
        if ins == (13,):
            return (2 if c == 1 else 0, _CIT_RULED)
        if len(ins) == 2 and ins[0] == 4 and ins[1] in (10, 11, 12):
            v = 1 if (c == 1 and ins[1] in (10, 12)) else 0
            return (v, _CIT_RULED)
    return None


def _rule_high_fiber_vanishing(table, beta, ins):
    # all three-point invariants on (1,0,c) with c > 2 vanish; via the
    # divisor T3 (degree c != 0) the two-point ones follow
    a, b, c = beta
    if (a, b) == (1, 0) and c > 2 and len(ins) in (2, 3):
        return (0, _CIT_DIAGONAL_CLASSES)
    return None


def _rule_assoc_table(table, beta, ins):
    # the associativity-derived two-point table on the ruled family
    a, b, c = beta
    if (a, b) != (1, 0) or len(ins) != 2 or ins[1] not in (10, 11, 12):
        return None
    if ins[0] == 5:
        v = {10: 2, 11: 0, 12: 2}[ins[1]] if c == 1 else 0
        return (v, _CIT_ASSOC_TABLE)
    if ins[0] == 6:
        return (0, _CIT_ASSOC_TABLE)
    return None


def _rule_worked_two_point(table, beta, ins):
    # <T7 T10> on (1,0,c) = 1, 2, 1 for c = 0, 1, 2, and 0 beyond
    a, b, c = beta
    if (a, b) == (1, 0) and ins == (7, 10):
        return ((1, 2, 1)[c] if c <= 2 else 0, _CIT_WORKED)
    return None


def _rule_balanced_point(table, beta, ins):
    # <T13 Te> on (1,1,1) equals the pairing of Te against T3
    if beta == (1, 1, 1) and len(ins) == 2 and ins[1] == 13 and ins[0] in (10, 11, 12):
        return (_exact(chow.integrate(cup_basis(3, ins[0]))), _CIT_POINTLINE)
    return None


def _rule_pure_t4(table, beta, ins):
    if not ins or ins[0] != 4 or ins[-1] != 4:  # sorted: all T4
        return None
    m = len(ins)
    if m in (1, 3):
        return (0, _CIT_T4_LOW)
    if table.enable_bidegree_vanishing and below_first_bidegree(beta[0], beta[1]):
        return (0, _CIT_BIDEGREE)
    return None


def _rule_dressing(table, beta, ins):
    # a two-point invariant with a divisor insertion is the divisor's
    # degree on the class times the seeded one-point invariant
    if len(ins) != 2 or CODIM[ins[0]] != 1 or CODIM[ins[1]] < 2:
        return None
    sub = table.lookup(beta, (ins[1],))
    if sub is None:
        return None
    deg = divisor_degree(ins[0], beta)
    return (_exact(deg * sub[0]), _CIT_DRESSED + sub[1])


# (name, the insertion counts at which the rule can fire or None for
# any count, rule); the first rule that fires wins
_SEED_RULES = (
    ("s1s2", (1,), _rule_fiber_one_point),
    ("s3", (1, 2), _rule_ruled_classes),
    ("s4", (2, 3), _rule_high_fiber_vanishing),
    ("s5", (2,), _rule_assoc_table),
    ("s6", (2,), _rule_worked_two_point),
    ("s7", (2,), _rule_balanced_point),
    ("s8s9", None, _rule_pure_t4),
    ("dressing", (2,), _rule_dressing),
)


# ---------------------------------------------------------------------------
# Linear expressions over open two-point keys (used by the solver)
# ---------------------------------------------------------------------------

class LinExpr:
    """const + sum coeff_k * <key_k>, possibly poisoned by an Unknown."""

    __slots__ = ("const", "coeffs", "poison")

    def __init__(self, const=0, coeffs=None, poison: Optional[Unknown] = None):
        self.const = const
        self.coeffs: Dict[Key, Union[int, Fraction]] = dict(coeffs or {})
        self.poison = poison

    @classmethod
    def of_value(cls, v: Value) -> "LinExpr":
        if isinstance(v, Unknown):
            return cls(poison=v)
        return cls(const=v)

    @classmethod
    def symbol(cls, key: Key) -> "LinExpr":
        return cls(coeffs={key: 1})

    def add_scaled(self, other: "LinExpr", c) -> None:
        """In place: self += c * other, keeping the first poison and dropping
        coefficients that reach zero.  Only for a fresh accumulator."""
        if self.poison is None:
            self.poison = other.poison
        self.const += other.const * c
        coeffs = self.coeffs
        for k, v in other.coeffs.items():
            total = coeffs.get(k, 0) + v * c
            if total:
                coeffs[k] = total
            else:
                del coeffs[k]

    def value(self) -> Value:
        if self.poison is not None:
            return self.poison
        if self.coeffs:
            raise ConsistencyError("unresolved symbols in %r" % sorted(self.coeffs))
        return self.const

    def __repr__(self):
        return "LinExpr(%s, %s, poison=%r)" % (self.const, self.coeffs, self.poison)


# ---------------------------------------------------------------------------
# Canonical factorizations through a divisor (the recursion's choices)
# ---------------------------------------------------------------------------
#
# For each basis class of codimension >= 2 that sits in the divisor-generated
# subring: gamma = scale * (alpha cup alpha1) with alpha1 a divisor.  T4
# itself has no such factorization; it is what the dedicated cases peel off.

FACTORIZATIONS = {
    5: (Fraction(1), 1, 2),        # T5 = T1.T2
    6: (Fraction(1), 1, 1),        # T6 = T1.T1
    7: (Fraction(1), 2, 2),        # T7 = T2.T2
    8: (Fraction(1), 1, 3),        # T8 = T1.T3
    9: (Fraction(1), 2, 3),        # T9 = T2.T3
    10: (Fraction(1, 2), 7, 1),    # T10 = (T7.T1)/2
    11: (Fraction(1, 2), 6, 2),    # T11 = (T6.T2)/2
    12: (Fraction(1, 2), 5, 3),    # T12 = (T5.T3)/2
    13: (Fraction(1), 12, 1),      # T13 = T12.T1
}


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class InstanceRecord:
    """One associativity instance, for tracing and the derivation audit."""

    __slots__ = ("label", "corners", "extra", "beta", "target")

    def __init__(self, label, corners, extra, beta, target):
        self.label = label
        self.corners = corners
        self.extra = extra
        self.beta = beta
        self.target = target

    def instance(self) -> str:
        corners = ",".join(chow.BASIS_NAMES[i] for i in self.corners)
        extra = " ".join(chow.BASIS_NAMES[i] for i in self.extra) or "-"
        return "%s: corners(%s) extra(%s) at %r" % (self.label, corners, extra, self.beta)

    def describe(self) -> str:
        tgt = ""
        if self.target is not None:
            tb, ti = self.target
            tgt = " for <%s>_%r" % (" ".join(chow.BASIS_NAMES[i] for i in ti), (tb,))
        return self.instance() + tgt


class Engine:
    """Memoized Gromov-Witten invariant computer."""

    def __init__(self, c_max: int = 6, enable_bidegree_vanishing: bool = False,
                 seed_overrides: Optional[Iterable[str]] = None,
                 disabled_seed_rules: Iterable[str] = ()):
        if type(c_max) is not int or c_max < 0:
            raise UsageError("c_max wants an int >= 0, got %r" % (c_max,))
        self.c_max = c_max
        self.seeds = SeedTable(enable_bidegree_vanishing, disabled_seed_rules)
        if seed_overrides is not None:
            self.seeds.load_overrides(seed_overrides)
        self.memo: Dict[Key, Value] = {}
        self.origin: Dict[Key, str] = {}
        self._rows: Dict[tuple, _Row] = {}
        self._solved_betas = set()
        self.stats = {"wdvv_instances": 0, "solver_instances": 0, "involution_hits": 0}
        self.tracing = False
        self.trace_log: List[InstanceRecord] = []
        self._solver_instances_used: List[Tuple] = []

    # -- public API ----------------------------------------------------------

    def invariant(self, beta: Sequence[int], insertions: Sequence) -> Value:
        """The genus-zero invariant of the class ``beta`` with the given
        insertions (basis indices, or CohVectors expanded multilinearly).
        Every term is evaluated; the first Unknown term is the result."""
        beta = _checked_class(beta)
        if check_insertions(insertions, vectors=True):
            value = self._invariant(beta, tuple(sorted(insertions)))
            return value if type(value) is Unknown else Fraction(value)
        total = 0
        unknown: Optional[Unknown] = None
        for ins, coeff in _expand(insertions):
            value = self._invariant(beta, ins)
            if isinstance(value, Unknown):
                unknown = unknown or value
            elif value:
                total += coeff * value
        return unknown or Fraction(total)

    def provenance_of(self, beta: Beta, insertions: Sequence[int]) -> str:
        beta = _checked_key(beta, insertions, vectors=False)
        factor, key = self._normalize(beta, tuple(sorted(insertions)))
        if key is None:
            return "vanishes by an axiom (fundamental class, dimension, or divisor degree)"
        note = self.origin.get(key)
        if note is None:
            seed = self.seeds.lookup(*key)
            if seed is not None:
                note = "seed: " + seed[1]
        if note is None:
            memo_hit = self.memo.get(key)
            if isinstance(memo_hit, Unknown):
                note = memo_hit.reason
        head = "" if factor == 1 else "divisor axiom factor %s; " % factor
        return head + (note or "unresolved")

    # -- normalization -------------------------------------------------------

    def _normalize(self, beta: Beta, ins: Insertions):
        """Apply the fundamental-class, dimension and divisor axioms.

        Returns (factor, key) with key None when the invariant is an exact
        zero.  The class-free part is ``_normal_plan(ins)``; here only a+b
        is compared and the stripped divisors' degrees are multiplied, in
        the plan's order, up to the first zero degree.
        """
        plan = _normal_plan(ins)
        if plan is None or 2 * (beta[0] + beta[1]) != plan[0]:
            return 0, None
        factor = 1
        for d in plan[1]:
            deg = divisor_degree(d, beta)
            if deg == 0:
                return 0, None
            factor *= deg
        return factor, (beta, plan[2])

    def _invariant(self, beta: Beta, ins: Insertions) -> Value:
        factor, key = self._normalize(beta, ins)
        if key is None:
            return 0
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = _exact(self._reduce_key(key, _Context()).value())
        return value if isinstance(value, Unknown) else _exact(factor * value)

    # invariant_value(beta, ins): the invariant of the class ``beta`` with a
    # tuple of basis indices, as the engine keeps it: an int when it is
    # integral, a Fraction only when it is not, or an Unknown.  The
    # arguments are not checked.  The axioms come first, so the memo is
    # read and written under the normalized key only.  ``invariant``
    # answers an all-index query the same way and converts the number to a
    # Fraction; the quantum product reads its three-point invariants here,
    # so that it can sum them in integers.
    invariant_value = _invariant

    # -- interior rows ----------------------------------------------------------

    def _row(self, key: tuple) -> _Row:
        """The whole interior row (b, x, y, P, codim): every <x y t P>_b of
        the group, looked up in t order the first time and stored."""
        row = self._rows.get(key)
        if row is None:
            b, x, y, part, codim = key
            row = self._rows[key] = _make_row(
                (t, self._invariant(b, (x, y, t) + part)) for t in _CODIM_GROUPS[codim])
        return row

    def _side(self, e_key: tuple, f_key: tuple):
        """One side of an interior sum that the axioms leave live, as
        ``_contract`` gives it: 0 when the e-row or the f-row is stored
        empty, or when the e-row holds only zeros, whose f-row is then not
        looked up."""
        rows = self._rows
        e_row = rows.get(e_key)
        if e_row is _EMPTY_ROW or rows.get(f_key) is _EMPTY_ROW:
            return 0
        e_row = e_row or self._row(e_key)
        return 0 if e_row is _EMPTY_ROW else _contract(e_row, self._row(f_key))

    # -- the recursive reducer ------------------------------------------------

    def _reduce_key(self, key: Key, ctx: "_Context") -> LinExpr:
        if key in ctx.targets or (ctx.open_rule is not None and ctx.open_rule(key)):
            return LinExpr.symbol(key)
        cached = ctx.cache.get(key)
        if cached is not None:
            return cached
        memo_hit = self.memo.get(key)
        if memo_hit is not None:
            return LinExpr.of_value(memo_hit)
        beta, ins = key
        seed = self.seeds.lookup(beta, ins)
        if seed is not None:
            return LinExpr.of_value(seed[0])
        if len(ins) >= 3:
            # the factor swap fixes every invariant, so a mirror that is
            # already a number is this key's value (it differs from the
            # key, which missed the memo); an Unknown mirror is not reused
            mkey = (iota_beta(beta), iota_insertions(ins))
            mirror = self.memo.get(mkey)
            if mirror is not None and not isinstance(mirror, Unknown):
                self.memo[key] = mirror
                self.origin[key] = self.origin[mkey] + " (involution image)"
                self.stats["involution_hits"] += 1
                return LinExpr.of_value(mirror)
        record = None
        if ins and all(i == 4 for i in ins):
            # pure incidence-class powers are seed material, never derived
            expr = LinExpr(poison=Unknown(
                "requires <T4^%d>_(%d,%d,%d) seed; pure incidence-class powers "
                "beyond exponent three are not derivable here" % (len(ins), *beta)))
        elif len(ins) <= 2:
            expr = self._two_point_expr(key)
        else:
            expr, record = self._reduce_by_wdvv(key, ctx)
        if ctx.open_rule is not None:
            if ctx.targets.isdisjoint(expr.coeffs):
                ctx.cache[key] = expr
        elif not expr.coeffs:
            self.memo[key] = _exact(expr.value())
            if record is not None and expr.poison is None:
                self.origin[key] = "WDVV " + record.instance()
        return expr

    def _two_point_expr(self, key: Key) -> LinExpr:
        """An unseeded key of one or two insertions that missed the memo;
        only a numeric reduction meets one (see the two-point contract in
        the module docstring)."""
        beta, ins = key
        if beta[2] > self.c_max:
            return LinExpr(poison=Unknown("exceeds c_max=%d at %r" % (self.c_max, (beta,))))
        self._ensure_two_point(beta)
        stored = self.memo.get(key)
        if stored is not None:
            return LinExpr.of_value(stored)
        reason = "two-point invariant <%s>_%r not determined by the shipped seeds" % (
            " ".join(chow.BASIS_NAMES[i] for i in ins), (beta,))
        return LinExpr(poison=Unknown(reason))

    def _instance_expr(self, corners, extra: Insertions, beta: Beta, ctx: "_Context") -> LinExpr:
        """Residual of one associativity instance: identically zero.

        corners (i, j, k, l): the equation couples the pairing (ij|kl)
        against (ik|jl) over all splittings of ``beta`` and labelled
        partitions of ``extra``.  Interior factors sit at smaller classes
        and are evaluated numerically.  The result is a fresh LinExpr that
        no table shares, so callers may mutate it.
        """
        i, j, k, l = corners
        rel = LinExpr()  # the one accumulator, mutated only here
        normalize = self._normalize
        reduce_key = self._reduce_key
        for ins, coeff in _boundary_terms(corners, extra):
            factor, key = normalize(beta, ins)
            if key is not None:
                rel.add_scaled(reduce_key(key, ctx), coeff * factor)
        plans = _interior_plan(corners, extra, beta[0] + beta[1])
        side = self._side
        scaled_acc = 0  # D times the interior sum
        for b1, b2, s1, p1, p2 in _split_plan(beta):
            for a_part, b_part, weight, lhs_plan, rhs_plan in plans[s1]:
                # a side is judged by its rows' masks at the patterns of b1
                # and b2; a dead one is 0 and builds no row key
                lhs = rhs = 0
                if lhs_plan is not None:
                    ce, e_mask, f_mask = lhs_plan
                    if e_mask >> p1 & f_mask >> p2 & 1:
                        lhs = side((b1, i, j, a_part, ce), (b2, k, l, b_part, 4 - ce))
                if rhs_plan is not None:
                    ce, e_mask, f_mask = rhs_plan
                    if e_mask >> p1 & f_mask >> p2 & 1:
                        rhs = side((b1, i, k, a_part, ce), (b2, j, l, b_part, 4 - ce))
                if type(lhs) is tuple or type(rhs) is tuple:
                    # an Unknown term: the earliest (e, f, side), the
                    # (ij|kl) side first at equal (e, f)
                    if type(lhs) is not tuple or (type(rhs) is tuple and rhs[:2] < lhs[:2]):
                        lhs = rhs
                    return LinExpr(poison=lhs[2])
                scaled_acc += weight * (lhs - rhs)
        if scaled_acc:
            rel.const += _quotient(scaled_acc, scaled_dual_groups()[0])
        return rel

    def _reduce_by_wdvv(self, key: Key, ctx: "_Context") -> Tuple[LinExpr, InstanceRecord]:
        """Case analysis on (number of T4 insertions, the rest); returns the
        key's expression and the instance that determined it."""
        beta, ins = key
        m = sum(1 for t in ins if t == 4)
        gammas = sorted((t for t in ins if t != 4), key=lambda t: -CODIM[t])
        if not gammas:
            # pure T4 powers are seeds only; unseeded ones already returned
            raise ConsistencyError("pure-T4 key %r escaped the lookup" % (key,))

        if m == 0:
            _, alpha, alpha1 = FACTORIZATIONS[gammas[-1]]
            corners = (gammas[0], gammas[1], alpha, alpha1)
            extra = tuple(gammas[2:-1])
            label = "divisor-subring reduction"
        elif len(gammas) >= 2:  # m >= 1
            _, alpha, alpha1 = FACTORIZATIONS[gammas[-1]]
            corners = (4, gammas[0], alpha, alpha1)
            extra = (4,) * (m - 1) + tuple(gammas[1:-1])
            label = "single-T4 peel" if m == 1 else "multi-T4 peel"
        else:  # m >= 2, one gamma
            g1 = gammas[0]
            if CODIM[g1] == 4:
                alpha = alpha1 = 5  # T5.T5 = 2 T13
            else:
                _, alpha, alpha1 = FACTORIZATIONS[g1]
            corners = (4, 4, alpha, alpha1)
            extra = (4,) * (m - 2)
            label = "double-T4 instance"

        self.stats["wdvv_instances"] += 1
        record = InstanceRecord(label, corners, extra, beta, key)
        if self.tracing:
            self.trace_log.append(record)

        ctx.targets.add(key)
        try:
            rel = self._instance_expr(corners, extra, beta, ctx)
        finally:
            ctx.targets.discard(key)
        if rel.poison is not None:
            return LinExpr(poison=rel.poison), record
        t_c = rel.coeffs.pop(key, 0)
        if t_c == 0:
            raise ConsistencyError(
                "instance for %r does not contain its target (case %s)" % (key, label))
        # rel = t_c <key> + rest, so <key> = -rest / t_c
        return LinExpr(_quotient(-rel.const, t_c),
                       {k: _quotient(-v, t_c) for k, v in rel.coeffs.items()}), record

    # -- two-point derivation --------------------------------------------------

    def _two_point_candidates(self, beta: Beta) -> List[Key]:
        need = expected_dim(beta, 2)
        out = []
        for i in range(1, chow.BASIS_SIZE):
            for j in range(i, chow.BASIS_SIZE):
                if CODIM[i] + CODIM[j] == need:
                    out.append((beta, (i, j)))
        return out

    def _open_two_point(self, key: Key) -> bool:
        """The one rule for the keys of at most two insertions that stay
        symbolic: neither derived (every derived two-point key has an
        ``origin`` note, written with its memo value) nor seeded."""
        return len(key[1]) <= 2 and key not in self.origin and self.seeds.lookup(*key) is None

    def _ensure_two_point(self, beta: Beta) -> None:
        """Solve the two-point table of ``beta`` (a+b <= 2, c <= c_max)
        once, after those of its proper sub-classes."""
        if beta in self._solved_betas:
            return
        for sub, _ in splittings(beta):
            self._ensure_two_point(sub)
        self._solve_two_point(beta)
        self._solved_betas.add(beta)

    def _solve_two_point(self, beta: Beta) -> None:
        open_keys = [key for key in self._two_point_candidates(beta) if self._open_two_point(key)]
        if not open_keys:
            return
        solver = _GaussSolver(open_keys)
        # the rule's keys as a set: a set lookup per key visit is cheaper
        ctx = _Context(frozenset(open_keys).__contains__)
        for corners, extra in _instance_catalog(beta):
            self.stats["solver_instances"] += 1
            rel = self._instance_expr(corners, extra, beta, ctx)
            if rel.poison is not None:
                continue
            if not rel.coeffs:
                if rel.const != 0:
                    raise ConsistencyError(
                        "inconsistent associativity instance %r %r at %r: residual %s"
                        % (corners, extra, beta, rel.const))
                continue
            try:
                grew = solver.add(rel)
            except ConsistencyError as exc:
                raise ConsistencyError(
                    "%s; offending instance corners=%r extra=%r at %r, "
                    "after %r" % (exc, corners, extra, beta,
                                  self._solver_instances_used[-6:])) from None
            if grew:
                self._solver_instances_used.append((corners, extra, beta))
            if solver.fully_determined():
                break
        solution, undetermined = solver.solve()
        for key, value in solution.items():
            self._store_two_point(key, value, "derived from the associativity equations")
        for key in undetermined:
            self.memo[key] = Unknown(
                "two-point invariant left undetermined by the associativity system")
            self.origin[key] = "underdetermined"

    def _store_two_point(self, key: Key, value: Value, note: str) -> None:
        value = _exact(value)
        seed = self.seeds.lookup(*key)
        if seed is not None and seed[0] != value:
            raise ConsistencyError(
                "two-point solver contradicts seed at %r: %s vs %s" % (key, value, seed[0]))
        old = self.memo.get(key)
        if old is not None and not isinstance(old, Unknown) and old != value:
            raise ConsistencyError("two-point solver contradicts itself at %r" % (key,))
        self.memo[key] = value
        self.origin[key] = note
        beta, ins = key
        mkey = (iota_beta(beta), iota_insertions(ins))
        mold = self.memo.get(mkey)
        if mold is not None and not isinstance(mold, Unknown) and mold != value:
            raise ConsistencyError("two-point table not involution-closed at %r" % (mkey,))
        if mold is None and mkey != key:
            self.memo[mkey] = value
            self.origin[mkey] = note + " (involution image)"

    def derive_two_point_table(self) -> Dict[Key, Value]:
        """Derive every two-point invariant with a + b <= 2 up to the
        engine's c_max; returns the combined seed + derived table."""
        betas = []
        for a in range(3):
            for b in range(3 - a):
                for c in range(self.c_max + 1):
                    if (a, b, c) != (0, 0, 0):
                        betas.append((a, b, c))
        betas.sort(key=beta_key)
        table: Dict[Key, Value] = {}
        for beta in betas:
            self._ensure_two_point(beta)
            for key in self._two_point_candidates(beta):
                seed = self.seeds.lookup(*key)
                if seed is not None:
                    table[key] = Fraction(seed[0])
                else:
                    table[key] = _public(self.memo[key])
        return table

    # -- public WDVV surface ---------------------------------------------------

    def wdvv_instance(self, i: int, j: int, k: int, l: int,
                      extra: Sequence[int], beta: Beta) -> LinExpr:
        """The associativity relation for the given corners as a LinExpr
        over invariant keys: it asserts const + sum coeffs[key] * <key> = 0.
        Every key ``_open_two_point`` picks (of at most two insertions,
        neither derived nor seeded) stays a symbol; everything else is evaluated by the engine (a poisoned
        expression names the first Unknown met).  Raises UsageError on a
        class or index ``invariant`` would refuse."""
        beta, extra = _checked_instance((i, j, k, l), extra, beta)
        return self._instance_expr((i, j, k, l), extra, beta, _Context(self._open_two_point))

    def wdvv_residual(self, i: int, j: int, k: int, l: int,
                      extra: Sequence[int], beta: Beta) -> Value:
        """Numeric residual of one associativity instance (zero when the
        computed invariants satisfy the equation; Unknown if any term is).
        Checked like ``wdvv_instance``."""
        beta, extra = _checked_instance((i, j, k, l), extra, beta)
        return _public(self._instance_expr((i, j, k, l), extra, beta, _Context()).value())


class _Context:
    """The state of one reduction.

    ``open_rule`` picks the keys that stay symbolic: None for a numeric
    reduction, whose finished values go to the engine's value table, or a
    predicate (the solver's unknowns, or ``Engine._open_two_point`` for
    ``wdvv_instance``), whose expressions are cached here instead and never
    reach the value table (a mirror's number that a key reuses is already
    final and is stored in either case).  ``targets`` are the keys whose
    instances are being built; they stay symbolic too, so meeting one
    again inside its own reduction closes the linear equation instead of
    recursing.  Expressions that mention a target are valid only while it
    is open and are not cached.
    """

    __slots__ = ("open_rule", "targets", "cache")

    def __init__(self, open_rule: Optional[Callable[[Key], bool]] = None):
        self.open_rule = open_rule
        self.targets: set = set()
        self.cache: Dict[Key, LinExpr] = {}


# -- exact Gaussian elimination --------------------------------------------------

class _GaussSolver:
    """Incremental exact row reduction over a fixed variable list.  Each
    pivot row is a ``LinExpr`` keyed by its pivot, the row's first
    variable in list order, kept reduced with that entry 1.  Entries and
    constants are ints while integral; only an entry that is not is a
    Fraction."""

    def __init__(self, variables: List[Key]):
        self.vars = list(variables)
        self.pivots: Dict[Key, LinExpr] = {}

    def add(self, rel: LinExpr) -> bool:
        """Add relation sum coeff*var + const = 0; True if rank grew."""
        row = LinExpr(_exact(rel.const), {key: _exact(c) for key, c in rel.coeffs.items() if c})
        for key, prow in self.pivots.items():
            f = row.coeffs.get(key)
            if f:
                _subtract(row, f, prow)
        if not row.coeffs:
            if row.const:
                raise ConsistencyError("inconsistent associativity system")
            return False
        lead = next(key for key in self.vars if key in row.coeffs)
        d = row.coeffs[lead]
        if d != 1:
            row = LinExpr(_quotient(row.const, d),
                          {key: _quotient(c, d) for key, c in row.coeffs.items()})
        for prow in self.pivots.values():
            f = prow.coeffs.get(lead)
            if f:
                _subtract(prow, f, row)
        self.pivots[lead] = row
        return True

    def fully_determined(self) -> bool:
        return len(self.pivots) == len(self.vars)

    def solve(self):
        """(solved variable -> value, undetermined variables).  A variable
        is determined when its pivot row involves no other variable."""
        solution = {key: -row.const for key, row in self.pivots.items() if len(row.coeffs) == 1}
        return solution, [key for key in self.vars if key not in solution]


def _subtract(row: LinExpr, f: Union[int, Fraction], prow: LinExpr) -> None:
    """In place: row -= f * prow, with every integral entry an int."""
    row.add_scaled(prow, -f)
    row.const = _exact(row.const)
    row.coeffs = {key: _exact(c) for key, c in row.coeffs.items()}


# -- instance catalog -------------------------------------------------------------

def _corner_quadruples(total_codim: int):
    seen = set()
    for i in range(1, 5):
        for k in range(1, 5):
            for j in range(1, chow.BASIS_SIZE):
                if j == k:
                    continue
                for l in range(1, chow.BASIS_SIZE):
                    if CODIM[i] + CODIM[j] + CODIM[k] + CODIM[l] != total_codim:
                        continue
                    sig = _instance_signature(i, j, k, l)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    yield (i, j, k, l)


def _catalog_source(want: int):
    """Candidate associativity instances for the two-point solver at the
    classes with expected_dim(beta, 3) == want: dimension-balanced corner
    quadruples, no extra insertions first, then a single codimension-2
    extra for stubborn systems."""
    for corners in _corner_quadruples(want):
        yield corners, ()
    for t in (4, 5, 8):
        # with one extra insertion the corner codimensions drop by cod(t)-1
        for corners in _corner_quadruples(want + 1 - CODIM[t]):
            yield corners, (t,)


# want -> (the catalog entries read so far, the source of the rest)
_CATALOGS: Dict[int, Tuple[List, Iterator]] = {}


def _instance_catalog(beta: Beta):
    """``_catalog_source(expected_dim(beta, 3))``, read from a module
    cache that is extended only as far as some solve has read it."""
    want = expected_dim(beta, 3)
    if want not in _CATALOGS:
        _CATALOGS[want] = ([], _catalog_source(want))
    prefix, source = _CATALOGS[want]
    for n in itertools.count():
        if n == len(prefix):
            entry = next(source, None)
            if entry is None:
                return
            prefix.append(entry)
        yield prefix[n]


def _instance_signature(i, j, k, l):
    lhs = frozenset((tuple(sorted((i, j))), tuple(sorted((k, l)))))
    rhs = frozenset((tuple(sorted((i, k))), tuple(sorted((j, l)))))
    return frozenset((lhs, rhs))
