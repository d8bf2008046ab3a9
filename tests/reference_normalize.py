"""The axioms as the engine first applied them, one loop per call.

``reference_normalize(beta, ins)`` is ``Engine._normalize`` before its
class-free part moved into the cached ``_normal_plan``.  It is kept only
as a reference for ``tests/test_gw_engine.py``: the engine must return
the same (factor, key) for every class and raw insertion tuple.
"""

from qhilb.chow import CODIM, divisor_degree
from qhilb.gw_engine import dimension_check


def reference_normalize(beta, ins):
    """Apply the fundamental-class, dimension and divisor axioms.

    Returns (factor, key) with key None when the invariant is an exact
    zero.  Divisors are only removed while at least two insertions
    remain: one- and two-point values are primitive inputs here.
    """
    if 0 in ins:
        return 0, None
    if not dimension_check(beta, ins):
        return 0, None
    factor = 1
    work = list(ins)
    while len(work) >= 3:
        d = next((i for i in work if CODIM[i] == 1), None)
        if d is None:
            break
        work.remove(d)
        deg = divisor_degree(d, beta)
        if deg == 0:
            return 0, None
        factor *= deg
    return factor, (beta, tuple(sorted(work)))
