"""The small quantum ring and the verification of its presentation.

The quantum product deforms the cup product by three-point invariants,

    Ti * Tj  =  Ti cup Tj  +  sum <Ti Tj Te>_beta g^{ef} Tf q^beta,

with q^beta = q1^b q2^a q3^c for the curve class (a, b, c).  Since q1, q2
carry degree two and q3 degree zero, coefficients live in the polynomial
ring over q1, q2 with power series in q3; all computations here truncate
q3 at the engine's ``c_max`` and are exact.

The ring presentation in the generators T1..T4 consists of seventeen
relations: eleven are shipped verbatim in a reviewable data file, the
remaining six are the involution images of the asymmetric ones.  The
verifier evaluates each relation word left-associatively and demands an
identically zero residual below the truncation order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations_with_replacement
from math import factorial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import chow
from .chow import IOTA, CohVector, UsageError, scaled_dual_groups
from .coeffring import QSeries, Rational, TruncationMismatch, accumulate_product, geometric_q3
from .gw_engine import Beta, Engine, Unknown, check_insertions, dimension_classes, is_effective

Insertion = int


class MissingInvariant(RuntimeError):
    """A quantum product needed an invariant the engine reports Unknown."""

    def __init__(self, beta: Beta, insertions: Sequence[int], reason: str):
        self.beta = beta
        self.insertions = tuple(insertions)
        self.reason = reason
        names = " ".join(chow.BASIS_NAMES[i] for i in self.insertions)
        super().__init__("missing invariant <%s>_%r: %s" % (names, (tuple(beta),), reason))


def q_of_beta(beta: Beta) -> Tuple[int, int, int]:
    """Exponents of the deformation monomial attached to a curve class:
    the first ruling count pairs with q2, the second with q1."""
    a, b, c = beta
    if not is_effective(beta):
        raise UsageError("q^beta wants an effective class, got %r" % (beta,))
    return (b, a, c)


class QCohVector:
    """A cohomology class with series coefficients: 14 QSeries entries."""

    __slots__ = ("coords", "c_max")

    def __init__(self, coords: Sequence[QSeries], c_max: int):
        coords = tuple(coords)
        if len(coords) != chow.BASIS_SIZE:
            raise ValueError("expected %d coordinates" % chow.BASIS_SIZE)
        for s in coords:
            if not isinstance(s, QSeries):
                raise ValueError("QCohVector coordinates want QSeries, got %r" % (s,))
            if s.c_max != c_max:
                raise TruncationMismatch("coordinate at c_max %d in a vector at c_max %d"
                                         % (s.c_max, c_max))
        self.coords = coords
        self.c_max = c_max

    @classmethod
    def _make(cls, coords: Sequence[QSeries], c_max: int) -> "QCohVector":
        """Unchecked constructor for ring-operation results: 14 QSeries at
        c_max already."""
        out = object.__new__(cls)
        out.coords = tuple(coords)
        out.c_max = c_max
        return out

    @classmethod
    def zero(cls, c_max: int) -> "QCohVector":
        z = QSeries.zero(c_max)
        return cls((z,) * chow.BASIS_SIZE, c_max)

    @classmethod
    def basis(cls, i: int, c_max: int) -> "QCohVector":
        coords = [QSeries.zero(c_max)] * chow.BASIS_SIZE
        coords[i] = QSeries.one(c_max)
        return cls(coords, c_max)

    @classmethod
    def lift(cls, x: CohVector, c_max: int) -> "QCohVector":
        return cls([QSeries.scalar(c, c_max) for c in x.coords], c_max)

    # the series operations check each coordinate's c_max
    def __add__(self, other: "QCohVector") -> "QCohVector":
        return QCohVector._make([a + b for a, b in zip(self.coords, other.coords)], self.c_max)

    def __sub__(self, other: "QCohVector") -> "QCohVector":
        return QCohVector._make([a - b for a, b in zip(self.coords, other.coords)], self.c_max)

    def __neg__(self) -> "QCohVector":
        return QCohVector._make([-a for a in self.coords], self.c_max)

    def scale(self, s: Union[QSeries, Rational, int]) -> "QCohVector":
        if not isinstance(s, QSeries):
            s = QSeries.scalar(s, self.c_max)
        return QCohVector._make([a * s if a.terms else a for a in self.coords], self.c_max)

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coords)

    def at_q_zero(self) -> CohVector:
        return CohVector([a.constant_term() for a in self.coords])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QCohVector):
            return NotImplemented
        return self.c_max == other.c_max and self.coords == other.coords

    def __hash__(self):
        return hash((self.c_max, self.coords))

    def __str__(self) -> str:
        parts = []
        for i, s in enumerate(self.coords):
            if s.is_zero():
                continue
            if s == QSeries.one(self.c_max):
                parts.append(chow.BASIS_NAMES[i])
            elif len(s.terms) == 1:
                parts.append("%s %s" % (s, chow.BASIS_NAMES[i]))
            else:
                parts.append("(%s) %s" % (s, chow.BASIS_NAMES[i]))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class SmallQuantum:
    """The small quantum product, truncated at the engine's c_max."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.c_max = engine.c_max
        self._table: Dict[Tuple[int, int], QCohVector] = {}

    # -- the basis product table ------------------------------------------

    def basis_product(self, i: int, j: int) -> QCohVector:
        check_insertions((i, j), vectors=False)
        if i > j:
            i, j = j, i
        hit = self._table.get((i, j))
        if hit is not None:
            return hit
        c_max = self.c_max
        # terms[f]: q-exponent -> coefficient of that monomial times Tf
        terms: List[Dict] = [{(0, 0, 0): c} for c in chow.cup_basis(i, j).coords]
        if i != 0 and j != 0:
            # sums of <Ti Tj Te>_beta * D g^{ef} in the engine's own numbers
            # (ints where integral), divided by D once per coefficient, to an
            # int where D divides the sum; the cup product sits at q^0, which
            # no nonzero class reaches
            denom, groups = scaled_dual_groups()
            sums: List[Dict] = [{} for _ in terms]
            value_of = self.engine.invariant_value
            for e, fws in groups:
                ins = tuple(sorted((i, j, e)))
                for beta, q in _classes(ins, c_max):
                    value = value_of(beta, ins)
                    if isinstance(value, Unknown):
                        raise MissingInvariant(beta, (i, j, e), value.reason)
                    if value == 0:
                        continue
                    for f, w in fws:
                        sums[f][q] = sums[f].get(q, 0) + value * w
            for term, scaled in zip(terms, sums):
                for q, s in scaled.items():
                    term[q] = s // denom if s % denom == 0 else Fraction(s, denom)
        result = QCohVector([QSeries(t, c_max) for t in terms], c_max)
        self._table[(i, j)] = result
        return result

    def _bilinear(self, x: QCohVector, y: QCohVector,
                  table: Callable[[int, int], QCohVector]) -> QCohVector:
        # one dict of terms per output coordinate; table(i, j) is asked for every
        # pair of nonzero coordinates, also where si * sj truncates to 0
        if not x.c_max == y.c_max == self.c_max:
            raise TruncationMismatch("c_max mismatch: %d, %d vs %d" % (x.c_max, y.c_max, self.c_max))
        acc: List[Dict] = [{} for _ in range(chow.BASIS_SIZE)]
        y_nonzero = [(j, sj) for j, sj in enumerate(y.coords) if sj.terms]
        for i, si in enumerate(x.coords):
            if not si.terms:
                continue
            for j, sj in y_nonzero:
                entry = table(i, j)
                w = si * sj
                if not w.terms:
                    continue
                for terms, t in zip(acc, entry.coords):
                    if t.terms:
                        accumulate_product(terms, t, w)
        return QCohVector._make([QSeries._make(t, self.c_max) for t in acc], self.c_max)

    def product(self, x: QCohVector, y: QCohVector) -> QCohVector:
        return self._bilinear(x, y, self.basis_product)

    def cup(self, x: QCohVector, y: QCohVector) -> QCohVector:
        c_max = self.c_max
        return self._bilinear(x, y, lambda i, j: _lifted_cup(i, j, c_max))


@lru_cache(maxsize=None)
def _classes(ins: Tuple[int, ...], c_max: int) -> Tuple[Tuple[Beta, Tuple[int, int, int]], ...]:
    """(beta, q_of_beta(beta)) for each class of ``dimension_classes``, in
    its order."""
    return tuple((beta, q_of_beta(beta)) for beta in dimension_classes(ins, c_max))


@lru_cache(maxsize=None)
def _lifted_cup(i: int, j: int, c_max: int) -> QCohVector:
    return QCohVector.lift(chow.cup_basis(i, j), c_max)


def small_product(engine: Engine, i: int, j: int) -> QCohVector:
    """Quantum product of two basis classes (convenience wrapper)."""
    return SmallQuantum(engine).basis_product(i, j)


# ---------------------------------------------------------------------------
# Relations: data file, parser, verifier
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|T\d+|q[123]|G3|\^|\(|\)|\+|\-|\*|\.)")

# AST nodes: ("num", Fraction) ("q", index) ("g3",) ("T", index)
#            ("neg", x) ("add", x, y) ("sub", x, y)
#            ("star", x, y) ("cup", x, y) ("pow", x, n)


def _tokenize(text: str) -> List[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise UsageError("cannot tokenize relation at: %r" % text[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: List[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise UsageError("unexpected end of relation")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise UsageError("trailing tokens in relation: %r" % self.toks[self.pos:])
        return node

    def expr(self):
        if self.peek() == "-":
            self.take()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = ("star", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        while self.peek() == ".":
            self.take()
            node = ("cup", node, self.atom())
        return node

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise UsageError("unbalanced parentheses in relation")
        elif tok == "G3":
            node = ("g3",)
        elif tok.startswith("T"):
            idx = int(tok[1:])
            if not 0 <= idx < chow.BASIS_SIZE:
                raise UsageError("unknown basis token %r" % tok)
            node = ("T", idx)
        elif tok.startswith("q"):
            node = ("q", int(tok[1:]))
        else:
            node = ("num", Fraction(tok))
        if self.peek() == "^":
            self.take()
            power = self.take()
            if not power.isdigit():
                raise UsageError("exponent must be a positive integer")
            node = ("pow", node, int(power))
        return node


def _iota_ast(node):
    kind = node[0]
    if kind == "T":
        return ("T", IOTA[node[1]])
    if kind == "q":
        swap = {1: 2, 2: 1, 3: 3}
        return ("q", swap[node[1]])
    if kind in ("num", "g3"):
        return node
    if kind == "neg":
        return ("neg", _iota_ast(node[1]))
    if kind == "pow":
        return ("pow", _iota_ast(node[1]), node[2])
    return (kind, _iota_ast(node[1]), _iota_ast(node[2]))


class Relation:
    """One presentation relation: id, source text, syntax tree.  Shared by
    every ``load_relations`` list: only ``__init__`` assigns to it."""

    __slots__ = ("id", "text", "ast")

    def __init__(self, rel_id: int, text: str, ast):
        self.id = rel_id
        self.text = text
        self.ast = ast


_MIRROR_SOURCES = {12: 2, 13: 3, 14: 4, 15: 7, 16: 9, 17: 11}


def load_relations() -> List[Relation]:
    """The seventeen relations: eleven from the data file, six mirrors.
    The file is parsed once; each call returns a fresh list."""
    return list(_parsed_relations())


@lru_cache(maxsize=None)
def _parsed_relations() -> Tuple[Relation, ...]:
    text = resources.files("qhilb.data").joinpath("relations.txt").read_text()
    by_id: Dict[int, Relation] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, body = line.partition("|")
        rel_id = int(head.strip())
        ast = _Parser(_tokenize(body.strip())).parse()
        by_id[rel_id] = Relation(rel_id, body.strip(), ast)
    if sorted(by_id) != list(range(1, 12)):
        raise UsageError("relation file must carry ids 1..11")
    for rel_id, src in _MIRROR_SOURCES.items():
        base = by_id[src]
        by_id[rel_id] = Relation(rel_id, "iota[%s]" % base.text, _iota_ast(base.ast))
    return tuple(by_id[i] for i in range(1, 18))


_LEAF_KINDS = frozenset(("num", "q", "g3", "T"))


class _Evaluator:
    """Evaluates relation syntax trees over the quantum ring."""

    def __init__(self, ring: SmallQuantum):
        self.ring = ring
        self.c_max = ring.c_max
        # each distinct constant leaf, built once; values are never mutated
        self.leaves: Dict[tuple, object] = {}

    def run(self, node) -> QCohVector:
        val = self.eval(node)
        if isinstance(val, QSeries):
            raise UsageError("relation evaluates to a scalar, not a class")
        return val

    def _leaf(self, node):
        kind = node[0]
        if kind == "num":
            return QSeries.scalar(node[1], self.c_max)
        if kind == "q":
            if node[1] == 3 and self.c_max < 1:
                return QSeries.zero(self.c_max)  # q3 dies in the quotient
            expo = [0, 0, 0]
            expo[node[1] - 1] = 1
            return QSeries.monomial(tuple(expo), self.c_max)
        if kind == "g3":
            return geometric_q3(self.c_max)
        return QCohVector.basis(node[1], self.c_max)

    def eval(self, node):
        kind = node[0]
        if kind in _LEAF_KINDS:
            leaf = self.leaves.get(node)
            if leaf is None:
                leaf = self.leaves[node] = self._leaf(node)
            return leaf
        if kind == "neg":
            val = self.eval(node[1])
            return -val
        if kind == "pow":
            base = self.eval(node[1])
            if isinstance(base, QCohVector):
                raise UsageError("powers of classes are not used in relations")
            out = QSeries.one(self.c_max)
            for _ in range(node[2]):
                out = out * base
            return out
        if kind in ("add", "sub"):
            lhs, rhs = self.eval(node[1]), self.eval(node[2])
            if isinstance(lhs, QSeries) != isinstance(rhs, QSeries):
                raise UsageError("cannot add a scalar to a class in a relation")
            return lhs + rhs if kind == "add" else lhs - rhs
        if kind == "star":
            return self._combine(node[1], node[2], quantum=True)
        if kind == "cup":
            return self._combine(node[1], node[2], quantum=False)
        raise UsageError("bad relation node %r" % (node,))

    def _combine(self, left, right, quantum: bool):
        lhs, rhs = self.eval(left), self.eval(right)
        if isinstance(lhs, QSeries) and isinstance(rhs, QSeries):
            return lhs * rhs
        if isinstance(lhs, QSeries):
            return rhs.scale(lhs)
        if isinstance(rhs, QSeries):
            return lhs.scale(rhs)
        return self.ring.product(lhs, rhs) if quantum else self.ring.cup(lhs, rhs)


def verify_all(engine: Engine, ids: Optional[Sequence[int]] = None) -> Dict[int, QCohVector]:
    """Residual of each relation (all seventeen, or those in ``ids``) by
    id: identically zero up to the engine's c_max."""
    if ids is None:
        ids = range(1, 18)
    elif not isinstance(ids, Sequence):
        raise UsageError("relation ids want a sequence of ints 1..17, got %r" % (ids,))
    # type(x) is int: True would otherwise pass as relation 1
    bad = (sorted({x for x in ids if type(x) is int and not 1 <= x <= 17})
           + [x for x in ids if type(x) is not int])
    if bad:
        raise UsageError("relation ids are 1..17, got %s" % " ".join(map(str, bad)))
    relations = load_relations()
    wanted = set(ids)
    ev = _Evaluator(SmallQuantum(engine))
    return {rel.id: ev.run(rel.ast) for rel in relations if rel.id in wanted}


# ---------------------------------------------------------------------------
# Big-quantum coefficient extraction
# ---------------------------------------------------------------------------

class GammaSeries:
    """Coefficients of one structure-constant series of the big product.

    ``terms`` maps (beta, y-exponent tuple over T4..T13) to the exact
    coefficient: the invariant with those insertions divided by the
    factorials of the exponents.  Coefficients resting on an Unknown
    invariant are flagged with the Unknown, never zeroed.
    """

    def __init__(self, i: int, j: int, k: int, y_truncation: int, c_max: int):
        self.indices = (i, j, k)
        self.y_truncation = y_truncation
        self.c_max = c_max
        self.terms: Dict[Tuple[Beta, Tuple[int, ...]], object] = {}

    def known_terms(self):
        return {k: v for k, v in self.terms.items() if not isinstance(v, Unknown)}

    def flagged_terms(self):
        return {k: v for k, v in self.terms.items() if isinstance(v, Unknown)}


def gamma(engine: Engine, i: int, j: int, k: int, y_truncation: int = 2) -> GammaSeries:
    """All coefficients of the deformation series for one index triple,
    up to total y-degree ``y_truncation`` and the engine's q3-order."""
    check_insertions((i, j, k), vectors=False)
    if type(y_truncation) is not int or y_truncation < 0:
        raise UsageError("y_truncation wants an int >= 0, got %r" % (y_truncation,))
    c_max = engine.c_max
    series = GammaSeries(i, j, k, y_truncation, c_max)
    if 0 in (i, j, k):
        return series  # vanishes: no degree-zero curves contribute
    for n in range(y_truncation + 1):
        for multiset in combinations_with_replacement(range(4, chow.BASIS_SIZE), n):
            ins = (i, j, k) + multiset
            ydeg = _ydeg(multiset)
            denom = Fraction(1)
            for t in set(multiset):
                denom *= factorial(multiset.count(t))
            for beta in dimension_classes(ins, c_max):
                value = engine.invariant(beta, ins)
                if isinstance(value, Unknown):
                    series.terms[(beta, ydeg)] = value
                elif value != 0:
                    series.terms[(beta, ydeg)] = value / denom
    return series


def _ydeg(multiset: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(multiset.count(t) for t in range(4, chow.BASIS_SIZE))
