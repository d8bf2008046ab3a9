"""The engine's associativity loop against the full reference loop.

Each case runs on two fresh engines, one with the engine's own loop and
one with ``reference_wdvv``'s.  They must agree exactly on values, on the
first Unknown and on the expressions of instances.  The engine does less
work: it leaves out the interior sides whose rows the axioms make zero,
so it stores no more keys than the reference, but every key the
reference stored has the same value or the same Unknown reason when
asked of the engine afterwards.  The
warm-engine cases run many queries on one engine, so that instances meet
interior rows stored by earlier ones and contract them instead of
looking their entries up.
"""

from fractions import Fraction

import pytest

from qhilb.chow import CODIM
from qhilb.gw_engine import (Engine, LinExpr, Unknown, _boundary_terms, _Context,
                             _corner_quadruples, _normal_plan)
from qhilb.quantum import verify_all
from reference_normalize import reference_normalize
from reference_wdvv import _instance_expr as reference_instance_expr
from reference_wdvv import use_reference_loop


def _engines(c_max, **options):
    new = Engine(c_max=c_max, **options)
    ref = use_reference_loop(Engine(c_max=c_max, **options))
    return new, ref


def _same_value(got, want):
    """Equal numbers, or Unknowns with equal reasons."""
    return _reason(got) == _reason(want) and (isinstance(got, Unknown) or got == want)


def _assert_same_engine_state(new, ref):
    # the instances each engine builds depend on when its two-point solves
    # run, since a key a solve reduced is not built again; the engine
    # reaches fewer keys, so it stores no more (it was held to no more
    # instances than the reference while a solve's keys were built again)
    assert len(new.memo) <= len(ref.memo)
    for key in new.memo.keys() & ref.memo.keys():
        assert _same_value(new.memo[key], ref.memo[key]), key
    for (beta, ins), want in ref.memo.items():
        assert _same_value(new._invariant(beta, ins), want), (beta, ins)


def _reason(value):
    return value.reason if isinstance(value, Unknown) else None


def _as_tuple(expr):
    return expr.const, expr.coeffs, _reason(expr.poison)


def _assert_same_reduction(new, ref, beta, ins):
    got, want = new.invariant(beta, ins), ref.invariant(beta, ins)
    assert type(got) is type(want) and got == want  # Unknowns: by reason
    return got


def _assert_same_residual(new, ref, corners, extra, beta):
    got = new.wdvv_residual(*corners, extra, beta)
    want = ref.wdvv_residual(*corners, extra, beta)
    assert type(got) is type(want) and got == want


def _assert_same_instance(new, ref, corners, extra, beta, warm=False):
    if warm:
        # on a warm engine, what an open expression keeps symbolic depends
        # on which keys the engine already holds as numbers; the numeric
        # residual first derives every boundary key, and solves the
        # two-point classes it reaches, on both engines
        _assert_same_residual(new, ref, corners, extra, beta)
    # the two-point keys at beta open, as in the two-point solver
    def open_rule(key):
        return key[0] == beta and len(key[1]) <= 2
    got = new._instance_expr(corners, extra, beta, _Context(open_rule))
    want = ref._instance_expr(corners, extra, beta, _Context(open_rule))
    assert _as_tuple(got) == _as_tuple(want)
    got = new.wdvv_instance(*corners, extra, beta)
    want = ref.wdvv_instance(*corners, extra, beta)
    assert _as_tuple(got) == _as_tuple(want)
    _assert_same_residual(new, ref, corners, extra, beta)


REDUCTIONS = [
    (2, (1, 1, 2), (4, 4, 13), None),        # double-T4 instances, two-point solver
    (2, (1, 1, 1), (4, 4, 4, 12), None),     # multi-T4 peels with one extra
    (2, (1, 1, 1), (5, 12, 12), None),       # divisor-subring reduction
    (2, (1, 1, 2), (5, 5, 5, 5, 5), None),   # repeated extras: partition weights > 1
    (1, (1, 2, 1), (4, 4, 4, 4, 13), None),  # peels with two and three extras
    # an interior factor needs an unseeded pure power
    (1, (1, 2, 1), (4, 4, 4, 4, 4, 12), "requires <T4^5>_(0,2,0) seed"),
    # an interior factor sits beyond c_max
    (1, (1, 1, 2), (4, 4, 5, 10), "exceeds c_max=1"),
    # single-T4 peel whose sums meet rows with only some entries zero by
    # the axioms: such a row is live
    (2, (1, 1, 2), (4, 10, 12), None),
]

INSTANCES = [
    (1, (1, 12, 4, 7), (), (1, 1, 1)),      # solver rows: three open keys
    (1, (2, 11, 4, 4), (), (1, 1, 1)),
    (2, (13, 5, 1, 2), (), (1, 1, 2)),
    (2, (4, 4, 5, 5), (), (1, 1, 2)),
    (2, (4, 4, 5, 3), (4,), (1, 1, 1)),
    (2, (4, 12, 1, 2), (4,), (1, 1, 1)),
    (2, (4, 5, 1, 1), (), (0, 1, 0)),
    (1, (4, 13, 1, 2), (11,), (1, 2, 0)),
    (1, (4, 4, 5, 5), (4, 4), (1, 2, 0)),
    (1, (4, 12, 1, 2), (4, 4, 4), (1, 2, 1)),
    (2, (1, 4, 2, 7), (5, 5), (1, 1, 1)),   # partition weight 2 on the (ij|kl) side
    (2, (4, 12, 2, 3), (4, 5), (1, 1, 1)),  # off balance: no term passes
    (1, (4, 12, 2, 3), (4,), (1, 1, 2)),    # residual poisoned: beyond c_max
    # the four boundary terms cancel pairwise, but the cancelling keys
    # still poison the residual (beyond c_max); the expression opens them
    (1, (1, 3, 3, 10), (), (1, 0, 2)),
    # both sides of one split and partition carry an Unknown term beyond
    # c_max, the (ik|jl) side's at (e, f) = (5, 6) before the (ij|kl)
    # side's at (9, 6): the residual names the (ik|jl) side's
    (1, (2, 5, 4, 6), (8, 10), (2, 1, 2)),
]


@pytest.mark.parametrize("c_max, beta, ins, poison", REDUCTIONS)
def test_reduction_matches_reference(c_max, beta, ins, poison):
    new, ref = _engines(c_max)
    got = _assert_same_reduction(new, ref, beta, ins)
    assert (poison is None) == (_reason(got) is None)
    assert poison is None or poison in got.reason
    _assert_same_engine_state(new, ref)


@pytest.mark.parametrize("c_max, corners, extra, beta", INSTANCES)
def test_instances_match_reference(c_max, corners, extra, beta):
    new, ref = _engines(c_max)
    _assert_same_instance(new, ref, corners, extra, beta)
    _assert_same_engine_state(new, ref)


@pytest.mark.parametrize("c_max", [1, 2])
def test_warm_engine_matches_reference(c_max):
    # one engine pair runs a heavy reduction, then every listed reduction
    # and instance at its c_max, in turn
    new, ref = _engines(c_max)
    _assert_same_reduction(new, ref, (1, 2, 1), (4, 4, 4, 4, 13))
    for case_c_max, beta, ins, _ in REDUCTIONS:
        if case_c_max == c_max:
            _assert_same_reduction(new, ref, beta, ins)
    for case_c_max, corners, extra, beta in INSTANCES:
        if case_c_max == c_max:
            _assert_same_instance(new, ref, corners, extra, beta, warm=True)
    _assert_same_engine_state(new, ref)


def test_non_integral_interior_values_match_reference():
    # a planted non-integral seed puts non-integral values into interior rows
    new, ref = _engines(2, seed_overrides=["1,0,1 | 5 10 | 1/3 | planted"])
    _assert_same_reduction(new, ref, (1, 1, 1), (4, 4, 4, 12))
    _assert_same_engine_state(new, ref)


class _TermRecorder:
    """Stands in for the engine under the reference loop: every expanded
    boundary term becomes its own symbol, numbered in visiting order, so
    the residual lists each term with its signed coefficient, unmerged.
    At the zero class there are no splittings, hence no interior sum."""

    _invariant = None

    def __init__(self):
        self.visits = 0

    def _normalize(self, beta, ins):
        return Fraction(1), (beta, ins)

    def _reduce_key(self, key, ctx):
        self.visits += 1
        return LinExpr(coeffs={(self.visits, key[1]): 1})


@pytest.mark.parametrize("total_codim", [4, 5, 6, 8])
def test_boundary_terms_match_reference_expansion(total_codim):
    # the compiled boundary is the reference's CohVector expansion: the
    # same terms in the same order with the same signed coefficients, each
    # with the axioms' plan of its insertions, and the terms holding T0
    # left out (they were compared as insertion tuples, T0 terms included,
    # while each instance normalized its terms afresh)
    for corners in _corner_quadruples(total_codim):
        for extra in ((), (4,), (5,), (8,), (4, 4)):
            rel = reference_instance_expr(_TermRecorder(), corners, extra, (0, 0, 0), None)
            assert [n for n, _ in rel.coeffs] == list(range(1, len(rel.coeffs) + 1))
            want = [(plan, c) for (_, ins), c in rel.coeffs.items()
                    for plan in [_normal_plan(ins)] if plan is not None]
            assert list(_boundary_terms(corners, extra)) == want, (corners, extra)


def test_cancelling_boundary_terms_still_poison():
    # the boundary of this instance cancels pairwise: the keys are reduced
    # all the same, so the residual is the Unknown one of them carries
    eng = Engine(c_max=1)
    terms = _boundary_terms((1, 3, 3, 10), ())
    sums = {}
    # summed by the plan, which stands for the term's insertions (they
    # were summed by the insertion tuples the terms held before)
    for plan, c in terms:
        sums[plan] = sums.get(plan, 0) + c
    assert terms and not any(sums.values())
    got = eng.wdvv_residual(1, 3, 3, 10, (), (1, 0, 2))
    assert got == Unknown("exceeds c_max=1 at ((1, 0, 2),)")
    expr = eng.wdvv_instance(1, 3, 3, 10, (), (1, 0, 2))
    assert (expr.const, expr.coeffs, expr.poison) == (0, {}, None)


# -- the plans that rows and boundary terms carry ------------------------------

# every class with a+b <= 3 and c <= 3: the a+b a plan wants, others, and
# classes where a stripped divisor has degree 0
PLAN_CLASSES = [(a, s - a, c) for s in range(4) for a in range(s + 1) for c in range(4)
                if (a, s - a, c) != (0, 0, 0)]


class _Reads(dict):
    """A memo that logs every key read."""

    def __init__(self):
        super().__init__()
        self.log = []

    def get(self, key, default=None):
        self.log.append(key)
        return dict.get(self, key, default)


class _PlanProbe:
    """Stands in for the engine under ``Engine._row`` (``row`` true) or
    ``Engine._instance_expr``: a row entry the memo misses reduces to a
    code that names its key (no two codes times small factors are equal),
    a boundary key to a symbol numbered in visiting order, and every side
    of an interior sum is 0."""

    def __init__(self, codes, row):
        self.codes = codes
        self.row = row
        self.memo = _Reads()
        self._rows = {}
        self.visits = 0

    def code(self, key):
        return self.codes.setdefault(key, 2 ** 40 + 2 * len(self.codes) + 1)

    def _reduce_key(self, key, ctx):
        if self.row:
            return self.code(key)
        self.visits += 1
        return LinExpr(coeffs={(self.visits, key): 1})

    def _side(self, e_key, f_key):
        return 0


def _shapes_met(monkeypatch):
    """The row shapes (x, y, P, codim) and the (corners, extra) shapes of
    the instances met by <T4 T4 T13>_(1,1,2) at c_max 2 and by
    ``verify_all`` at c_max 3."""
    boundary = {}
    instance_expr = Engine._instance_expr

    def recording(self, corners, extra, beta, ctx):
        boundary[corners, extra] = None
        return instance_expr(self, corners, extra, beta, ctx)

    monkeypatch.setattr(Engine, "_instance_expr", recording)
    small, large = Engine(c_max=2), Engine(c_max=3)
    assert small.invariant((1, 1, 2), [4, 4, 13]) == 2
    assert all(r.is_zero() for r in verify_all(large).values())
    monkeypatch.undo()
    rows = dict.fromkeys(key[1:] for eng in (small, large) for key in eng._rows)
    return list(rows), list(boundary)


def test_plans_match_reference_normalize(monkeypatch):
    # every row entry and boundary term a row or an instance normalizes
    # from its plan, at every class of PLAN_CLASSES, is what
    # ``reference_normalize`` makes of its raw insertions: the same keys
    # read or visited in the same order, with the same factors
    row_shapes, boundary_shapes = _shapes_met(monkeypatch)
    assert len(row_shapes) >= 40 and len(boundary_shapes) >= 90  # 44 and 96
    codes = {}
    for x, y, part, codim in row_shapes:
        for b in PLAN_CLASSES:
            probe = _PlanProbe(codes, row=True)
            got = Engine._row(probe, (b, x, y, part, codim))
            want, reads = {}, []
            for t in range(len(CODIM)):
                if CODIM[t] == codim:
                    factor, key = reference_normalize(b, (x, y, t) + part)
                    if key is not None:
                        reads.append(key)
                        want[t] = factor * probe.code(key)
            assert (got, probe.memo.log) == (want, reads), (b, x, y, part, codim)
    for corners, extra in boundary_shapes:
        raw = reference_instance_expr(_TermRecorder(), corners, extra, (0, 0, 0), None)
        for beta in PLAN_CLASSES:
            probe = _PlanProbe(codes, row=False)
            rel = Engine._instance_expr(probe, corners, extra, beta, _Context())
            got = [(key, c) for (_, key), c in rel.coeffs.items()]
            want = [(key, c * factor) for (_, ins), c in raw.coeffs.items()
                    for factor, key in [reference_normalize(beta, ins)] if key is not None]
            assert got == want, (corners, extra, beta)
