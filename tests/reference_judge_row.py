"""The verdict on an interior row as the engine first reached it, one row
at a time.

``reference_row_is_live(key)`` is the loop of ``Engine._judge_row``,
which the cached per-shape masks of ``_row_mask`` replaced: an interior
row (b, x, y, P, codim) is live when the fundamental-class, dimension and
divisor axioms leave <x y t P>_b for some t of the codimension group, and
dead when they zero every entry.  The engine's ``_normalize`` is replaced
by ``reference_normalize``, its own reference.  It is kept only as a
reference for ``tests/test_row_mask_reference.py``: the masks must give
the same verdict for every row key.
"""

from qhilb.chow import CODIM
from reference_normalize import reference_normalize

_CODIM_GROUPS = tuple(tuple(t for t in range(len(CODIM)) if CODIM[t] == c) for c in range(5))


def reference_row_is_live(key):
    """True when some entry of the row ``key`` passes the axioms."""
    b, x, y, part, codim = key
    for t in _CODIM_GROUPS[codim]:
        if reference_normalize(b, (x, y, t) + part)[1] is not None:
            return True
    return False
