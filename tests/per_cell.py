"""Reference cochain complex with the closure checked on every cell.

``spencer.symbolic.CochainComplex`` checks that the differential keeps the
cells (and the subcomplex) once per degree, on the (d, 0) cell.  This
reference checks it on every cell whose differential it takes, and keeps
no fast paths and no cell release, so tests can hold the engine to it.
"""

from spencer.errors import EquationNotInvariant, NotASubcomplex
from spencer.exactla import contains, rank_of_rows


class PerCellComplex:
    """Cells C(d, s), 0 <= s <= top, modulo an optional subcomplex V, with
    the engine's counts: H(d, s) = dim C - dim V - rank(d, s)
    - rank(d + 1, s - 1), the ranks taken modulo V(d - 1, s + 1)."""

    def __init__(self, top, cell, differential, sub=None):
        self.top = top
        self._cell = cell
        self._sub = sub
        self._differential = differential
        self._cells = {}
        self._ranks = {}

    def cells(self, d, s):
        if (d, s) not in self._cells:
            C = self._cell(d, s)
            V = None if self._sub is None else self._sub(d, s)
            if V is not None and not contains(C, V):
                raise EquationNotInvariant("V leaves C at (%d, %d)" % (d, s))
            self._cells[(d, s)] = (C, V)
        return self._cells[(d, s)]

    def rank(self, d, s):
        """Rank of the differential on C(d, s) modulo V(d - 1, s + 1),
        after checking that it sends C(d, s) and V(d, s) into the next
        cells."""
        if (d, s) not in self._ranks:
            C, V = self.cells(d, s)
            rank = 0
            if d >= 1 and s < self.top and C.dim:
                C_next, V_next = self.cells(d - 1, s + 1)
                delta = self._differential(C.ambient)
                images = [delta.apply(row) for row in C.int_rows]
                if not all(map(C_next.contains_vector, images)):
                    raise NotASubcomplex("C not closed at (%d, %d)" % (d, s))
                if V is not None:
                    if not all(V_next.contains_vector(delta.apply(row))
                               for row in V.int_rows):
                        raise NotASubcomplex(
                            "V not closed at (%d, %d)" % (d, s))
                    images = map(V_next.quotient_coords, images)
                rank = rank_of_rows(images)
            self._ranks[(d, s)] = rank
        return self._ranks[(d, s)]

    def H(self, d, s):
        if d < 0 or s < 0 or s > self.top:
            return 0
        C, V = self.cells(d, s)
        h = C.dim - (0 if V is None else V.dim) - self.rank(d, s)
        if s >= 1:
            h -= self.rank(d + 1, s - 1)
        if h < 0:
            raise NotASubcomplex("negative cohomology at (%d, %d)" % (d, s))
        return h

    def table(self, d_range, s_range):
        return {(d, s): self.H(d, s) for d in d_range for s in s_range}
