"""The small quantum product as it first accumulated, one vector per term.

``reference_bilinear(x, y, table)`` is ``SmallQuantum._bilinear`` before it
summed into one dict of terms per output coordinate: for each pair of
nonzero coordinates it adds ``table(i, j).scale(si * sj)`` to a running
14-coordinate vector.  It is kept only as a reference for
``tests/test_quantum_reference.py``: the product must return the same
vector and ask ``table`` for the same pairs in the same order.
"""

from qhilb.quantum import QCohVector


def reference_bilinear(x, y, table):
    out = QCohVector.zero(x.c_max)
    for i, si in enumerate(x.coords):
        if si.is_zero():
            continue
        for j, sj in enumerate(y.coords):
            if sj.is_zero():
                continue
            out = out + table(i, j).scale(si * sj)
    return out
