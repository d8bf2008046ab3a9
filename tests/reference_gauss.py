"""The two-point solver's exact Gaussian elimination as the engine first
computed it: every row entry and constant a ``Fraction``, the pivot row
scaled by the inverse of its leading entry.

It is kept only as a reference for ``tests/test_gauss_reference.py``: the
engine's ``_GaussSolver`` keeps integral entries as ints and must give the
same ``add`` results, the same solution and undetermined variables, and
the same ``ConsistencyError`` on every system.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from qhilb.gw_engine import ConsistencyError, Key, LinExpr


class _GaussSolver:
    """Incremental exact row reduction over a fixed variable list."""

    def __init__(self, variables: List[Key]):
        self.vars = list(variables)
        self.index = {v: i for i, v in enumerate(self.vars)}
        self.rows: List[Tuple[List[Fraction], Fraction]] = []
        self.pivots: Dict[int, int] = {}

    def add(self, rel: LinExpr) -> bool:
        """Add relation sum coeff*var + const = 0; True if rank grew."""
        row = [Fraction(0)] * len(self.vars)
        for key, c in rel.coeffs.items():
            row[self.index[key]] = c
        const = rel.const
        for col, rix in self.pivots.items():
            if row[col] != 0:
                prow, pconst = self.rows[rix]
                f = row[col]
                row = [r - f * p for r, p in zip(row, prow)]
                const = const - f * pconst
        lead = next((c for c, v in enumerate(row) if v != 0), None)
        if lead is None:
            if const != 0:
                raise ConsistencyError("inconsistent associativity system")
            return False
        inv = Fraction(1) / row[lead]
        row = [v * inv for v in row]
        const = const * inv
        for rix, (prow, pconst) in enumerate(self.rows):
            if prow[lead] != 0:
                f = prow[lead]
                self.rows[rix] = ([p - f * r for p, r in zip(prow, row)], pconst - f * const)
        self.rows.append((row, const))
        self.pivots[lead] = len(self.rows) - 1
        return True

    def fully_determined(self) -> bool:
        return len(self.pivots) == len(self.vars)

    def solve(self):
        """(solved variable -> value, undetermined variables).  A variable
        is determined when its pivot row involves no other variable."""
        solution = {}
        determined = set()
        for col, rix in self.pivots.items():
            row, const = self.rows[rix]
            if all(row[c] == 0 for c in range(len(self.vars)) if c != col):
                solution[self.vars[col]] = -const
                determined.add(col)
        undetermined = [self.vars[c] for c in range(len(self.vars)) if c not in determined]
        return solution, undetermined
