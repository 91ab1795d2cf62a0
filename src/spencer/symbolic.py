"""Symbol complexes: the lowering differential, prolongation and cohomology.

A symbolic system is a graded family ``g_l`` of subspaces of
``S^l V* (x) W`` that is closed under lowering by directions of V.  The
differential sends ``p (x) omega`` to ``sum_i (d_i p) (x) (e^i ^ omega)``
where ``d_i`` is the formal partial derivative on the polynomial model of
``S^d V*``; it squares to zero because mixed partials commute while the
wedge anticommutes.

Boundary conventions used everywhere: grades below zero are zero, grade 0
defaults to the full value space, and cohomology at the top represented
grade extends the system by prolongation on demand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import (Callable, Collection, Container, Dict, Iterable,
                    Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .errors import (AmbientMismatch, DegreeUnderflow, MissingGrade,
                     NotASubcomplex, ShapeMismatch, ZeroVector)
from .exactla import (LinearMap, Subspace, TensorShape, Vec, _exact,
                      _pivot_rows, _sym_index, _wedge_index, echelon,
                      kernel_of_rows, preimage, subspace_intersect, sym_basis,
                      tensor_all_forms)


def _lowered(mono: Tuple[int, ...], i: int) -> Tuple[int, ...]:
    return mono[:i] + (mono[i] - 1,) + mono[i + 1:]


def _raised(mono: Tuple[int, ...], i: int) -> Tuple[int, ...]:
    return mono[:i] + (mono[i] + 1,) + mono[i + 1:]


def _wedge_insert(i: int, J: Tuple[int, ...]) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Sign and sorted tuple for e^i ^ e_J, or None if i already occurs."""
    if i in J:
        return None
    pos = 0
    while pos < len(J) and J[pos] < i:
        pos += 1
    sign = -1 if pos % 2 else 1
    return sign, J[:pos] + (i,) + J[pos:]


@lru_cache(maxsize=None)
def delta_map(shape: TensorShape) -> LinearMap:
    """Lowering differential S^d Lambda^e -> S^(d-1) Lambda^(e+1), forms on
    V: p (x) omega -> sum_i (d_i p) (x) (e^i ^ omega).

    For a fixed (monomial, wedge) each i lands on its own column (monomial
    lowered at i, wedge with i inserted), so no entries meet."""
    if shape.ext_dim != shape.base_dim:
        raise ShapeMismatch("plain differential needs forms on the base space")
    if shape.sym_degree < 1:
        raise DegreeUnderflow("differential needs symmetric degree >= 1")
    n, w = shape.base_dim, shape.value_dim
    cod = TensorShape(n, shape.sym_degree - 1, shape.ext_degree + 1, w)
    low_index = _sym_index(n, cod.sym_degree)
    wedge_index = _wedge_index(n, cod.ext_degree)
    rows: List[Vec] = []
    for mono in shape.sym_list():
        for J in shape.wedge_list():
            moves = [(cod.index(low_index[_lowered(mono, i)],
                                wedge_index[ins[1]], 0), ins[0] * mono[i])
                     for i in range(n)
                     if mono[i] and (ins := _wedge_insert(i, J)) is not None]
            for b in range(w):
                rows.append({c + b: v for c, v in moves})
    return LinearMap(shape, cod, rows)


def _restriction_frame(tau: Sequence[Sequence[object]],
                       m: int) -> List[Dict[int, int | Fraction]]:
    """rho[j] = {a: tau[a][j]}, nonzero entries only: the covector e^j of
    V = Q^m restricted to span(tau), in the coordinates dual to the rows.
    Integral entries stay ints, so an integer flag gives integer rows."""
    tau = [[_exact(v) for v in row] for row in tau]
    return [{a: row[j] for a, row in enumerate(tau) if row[j]}
            for j in range(m)]


def prolong(g: Subspace) -> Subspace:
    """g^(1) = delta^-1(g (x) V*): all of S^(k+1) V* (x) W whose lowerings
    in every direction land in g."""
    shp = g.ambient
    if shp.ext_degree != 0:
        raise ShapeMismatch("prolongation acts on pure symmetric grades")
    n, k, w = shp.base_dim, shp.sym_degree, shp.value_dim
    dom = TensorShape(n, k + 1, 0, w)
    if g.is_full:
        return Subspace.full(dom)
    return preimage(delta_map(dom),
                    tensor_all_forms(g, TensorShape(n, k, 1, w)))


# Per direction i: coordinate p of g_(d-1) -> [(u, coordinate of D_i u at p)].
LoweringTable = Tuple[Dict[int, List[Tuple[int, int]]], ...]


def _lowering_table(upper: Subspace, lower: Subspace,
                    modulo: Optional[Subspace] = None) -> LoweringTable:
    """The lowerings D_i: g_d -> g_(d-1), with upper = g_d, lower = g_(d-1),
    each stored by its columns: for direction i, coordinate p of g_(d-1)
    maps to the pairs (u, D_i u [p]) over the basis rows u of g_d (in
    int_rows order), nonzero entries only.

    The coordinates are in the basis of g_(d-1) scaled to pivot entries 1,
    keyed by pivot position (by flat column when g_(d-1) is full): the
    entries of d_i u at the pivot columns, read once the integer residual
    check of contains_vector has found d_i u in g_(d-1); else
    NotASubcomplex.  Along one direction distinct monomials lower to
    distinct monomials, so no entries of d_i u meet.  With modulo, the
    lowering of a quotient by it (lower a complement), d_i u is first
    reduced modulo its canonical rows, and the entries may be Fractions."""
    shp = upper.ambient
    n, w = shp.base_dim, shp.value_dim
    low_index = _sym_index(n, shp.sym_degree - 1)
    # moves[sym][i]: (flat column of the lowered monomial, multiplicity).
    moves = [[(low_index[_lowered(mono, i)] * w, mono[i]) if mono[i] else None
              for i in range(n)] for mono in shp.sym_list()]
    pos = None if lower.is_full else {c: p for p, c in enumerate(lower.pivots)}
    table: LoweringTable = tuple({} for _ in range(n))
    for u, row in enumerate(upper.int_rows):
        split = [(moves[c // w], c % w, v) for c, v in row.items()]
        for i, by_coord in enumerate(table):
            low = {mv[i][0] + b: mv[i][1] * v for mv, b, v in split if mv[i]}
            if modulo is not None:
                low = modulo.reduce_vector(low)
            if pos is not None and low:
                if not lower.contains_vector(low):
                    raise NotASubcomplex("grade %d is not closed under lowering"
                                         % shp.sym_degree)
                low = {pos[c]: v for c, v in low.items() if c in pos}
            for p, v in low.items():
                by_coord.setdefault(p, []).append((u, v))
    return table


class SymbolicSystem:
    """Graded family g_l with lowering closure, plus on-demand extension.

    fill="prolong": missing grades above the top are prolonged; gaps raise.
    fill="full": any missing grade is the full space.  Every supplied grade
    must then be full too, else NotASubcomplex: the top one lies below a
    filled full grade, which lowers onto all of its ambient, and each
    grade below lies under a full one.  So this gives the full system.
    """

    def __init__(self, base_dim: int, value_dim: int,
                 grades: Mapping[int, Subspace], fill: str = "prolong"):
        if fill not in ("prolong", "full"):
            raise ValueError("fill must be 'prolong' or 'full'")
        self.base_dim = base_dim
        self.value_dim = value_dim
        self.fill = fill
        self._grades: Dict[int, Subspace] = {}
        self._lowerings: Dict[int, LoweringTable] = {}
        for l, sub in grades.items():
            if l < 0:
                raise DegreeUnderflow("grade below zero")
            want = TensorShape(base_dim, l, 0, value_dim)
            if sub.ambient != want:
                raise AmbientMismatch("grade %d has wrong ambient" % l)
            self._grades[l] = sub
        self.top = max(self._grades, default=0)
        self._check_closure()

    def _check_closure(self):
        """Each grade lowers into the one below: d_i g_l in g_(l-1), as the
        computation of lowering(l) checks.  Checked on every supplied grade
        and, with fill="full", on each full grade filled in directly above
        a supplied one; into a full grade it holds trivially."""
        supplied = sorted(self._grades)
        filled = [l + 1 for l in supplied
                  if self.fill == "full" and l + 1 not in self._grades]
        for l in supplied + filled:
            if l >= 1 and not self.grade(l - 1).is_full:
                self.lowering(l)

    def lowering(self, d: int) -> LoweringTable:
        """The lowerings D_i: g_d -> g_(d-1) (see _lowering_table),
        computed once per degree."""
        if d not in self._lowerings:
            self._lowerings[d] = _lowering_table(self.grade(d),
                                                 self.grade(d - 1))
        return self._lowerings[d]

    def grade(self, l: int) -> Subspace:
        if l < 0:
            raise DegreeUnderflow("no grades below zero")
        if l in self._grades:
            return self._grades[l]
        if l == 0:
            sub = Subspace.full(TensorShape(self.base_dim, 0, 0, self.value_dim))
        elif self.fill == "full":
            sub = Subspace.full(TensorShape(self.base_dim, l, 0, self.value_dim))
        elif l > self.top:
            sub = prolong(self.grade(l - 1))
        else:
            raise MissingGrade("grade %d was not supplied" % l)
        self._grades[l] = sub
        return sub

    def dim(self, l: int) -> int:
        return self.grade(l).dim


def cell_dim(system: SymbolicSystem, i: int, j: int) -> int:
    if i < 0 or j < 0 or j > system.base_dim:
        return 0
    return system.grade(i).dim * math.comb(system.base_dim, j)


class CohomologyTable(NamedTuple):
    """A labelled table of cohomology dimensions keyed by (sym, form) degree."""

    source: str
    cells: Dict[Tuple[int, int], int]

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "cells": {"%d,%d" % k: v for k, v in sorted(self.cells.items())},
        }


def _transposed(rows: Iterable[Vec]) -> Dict[int, Vec]:
    """The columns of the matrix with the given rows: per column c that
    holds an entry, k -> rows[k][c]."""
    columns: Dict[int, Vec] = {}
    for k, row in enumerate(rows):
        for c, v in row.items():
            columns.setdefault(c, {})[k] = v
    return columns


def _times(vec: Vec, rows: Mapping[int, Vec]) -> Vec:
    """sum_k vec[k] rows[k], over the k that rows holds; zero entries may
    stay."""
    out: Vec = {}
    for k, v in vec.items():
        for c, u in rows.get(k, {}).items():
            out[c] = out.get(c, 0) + v * u
    return out


class CochainComplex:
    """Cells C(d, s), d >= 0 and 0 <= s <= top, or cut down to the kernel
    of an optional restriction, with a differential from (d, s) to
    (d - 1, s + 1) that ``differential(shape)`` gives on the GradeShape
    cell of that ambient shape as a _KoszulMap, which hands its columns
    over deferred and whose closure the family's lowering tables check.
    A zero cell (of a zero grade) is never given to it.

    ``restriction(d, s, shape)`` gives a map pi(d, s) on C(d, s) (of that
    ambient shape) by its columns, a collection that may be iterated more
    than once, and whose members must be independent: the functionals on
    C's coordinates whose common kernel S(d, s) is the cell that counts.
    S(d, s) is never built: dim S = dim C - rank pi, and the rank of the
    differential on S is the rank of the differential's columns together
    with pi's, less rank pi, since the span of both annihilates exactly
    the kernel of the differential inside S.  One non-canonical echelon
    takes the differential's sparse columns first and pi's few dense ones
    last, so that no sparse column is reduced by a dense one.  Without a
    restriction pi is zero and S is C.

    H(d, s) counts the elements of S(d, s) whose differential vanishes,
    modulo the differential of S(d + 1, s - 1).  Maps and ranks are
    memoized, and a cell is kept until both ranks that read it are known,
    so a table builds each cell and takes each rank once.  Raises
    NotASubcomplex when a count is negative, the differential leaves S,
    or it does not square to zero.

    Each rank is taken on the columns of the differential on C(d, s): one
    per coordinate of C(d - 1, s + 1), over C's basis rows.  A rank reads
    only the pivot columns of one non-canonical elimination
    (exactla._pivot_rows), so a deferred column whose lead no later
    column meets is never built.  The ranks are cleared (Chen and Kerber,
    EuroCG 2011; Bauer, J. Appl. Comput. Topol. 5, 2021): as delta^2 = 0,
    the rows of the rank at (d - 1, s + 1) annihilate the columns of the
    rank at (d, s), so at each pivot p of the former the column at p
    depends on the columns after p and is dropped.  Under a restriction,
    a row of the rank at (d - 1, s + 1) is a combination of the columns of
    pi(d - 1, s + 1) and of the differential, and composed with the
    differential it is a combination of the columns of pi(d, s), as S is
    closed; so the whole pivot set clears, the pivots of pi's columns
    too.  A table takes those two ranks in that order (s rising within d,
    then d rising) and releases each pivot set once read, so every degree
    but the lowest of its range is cleared.  A zero cell has rank 0 and
    drops the pivot set that its rank would have read.

    Closure is checked once per degree, on the (d, 0) cell: the first rank
    taken at a degree d >= 1 (with s < top) first takes the rank at (d, 0),
    which checks that the differential sends S(d, 0) into S(d - 1, 1);
    C(d, 0) lands in C(d - 1, 1) by the lowering tables.  That rank first
    checks delta^2 = 0 from a nonzero (d, 0) into a nonzero (d - 1, 1),
    before any rank of degree d is cleared.  So a table whose form degrees
    exclude 0 still builds the (d, 0) cell of each degree it reads.  This
    relies on the shape of the cells: each is a sum of pieces u (x) omega,
    with u in S(d, 0) and omega in all of Lambda^s, or with u in a grade
    closed under lowering (checked by its lowering tables) and omega in an
    ideal of the exterior algebra (the kernel of a restriction of forms).
    As delta(u (x) omega) = (delta u) ^ omega, the checks at (d, 0) then
    hold at every s.
    """

    def __init__(self, top: int, cell: Callable[[int, int], Subspace],
                 differential: Callable[[GradeShape], _KoszulMap],
                 restriction: Optional[Callable[[int, int, TensorShape],
                                                Collection[Vec]]] = None):
        self.top = top
        self._cell = cell
        self._restriction = restriction
        self._differential = lru_cache(maxsize=None)(differential)
        self._cells: Dict[Tuple[int, int],
                          Tuple[Subspace, Collection[Vec]]] = {}
        self._ranks: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # Pivot set of the rank at (d, s), kept until (d + 1, s - 1) reads it.
        self._pivots: Dict[Tuple[int, int], Set[int]] = {}
        # Degrees d whose delta^2 = 0 from (d, 0) is checked.
        self._squared: Set[int] = set()

    def restricted(self, restriction: Callable[[int, int, TensorShape],
                                               Collection[Vec]]
                   ) -> CochainComplex:
        """The complex of the kernels of restriction in these cells, with
        the same differential: it shares this complex's maps and the
        degrees whose delta^2 = 0 either has checked."""
        cx = CochainComplex(self.top, self._cell, self._differential,
                            restriction)
        cx._differential, cx._squared = self._differential, self._squared
        return cx

    def _subspaces(self, d: int, s: int) -> Tuple[Subspace, Collection[Vec]]:
        """C(d, s) and the columns of pi(d, s), none without a restriction."""
        if (d, s) not in self._cells:
            C = self._cell(d, s)
            R = (() if self._restriction is None
                 else self._restriction(d, s, C.ambient))
            self._cells[(d, s)] = (C, R)
        return self._cells[(d, s)]

    def _release(self, d: int, s: int):
        """Drop C(d, s) once the ranks that read it are known: its own and
        those of C(d + 1, s - 1), whose differential lands in it."""
        if (d, s) in self._ranks and (s == 0 or (d + 1, s - 1) in self._ranks):
            self._cells.pop((d, s), None)

    def _cell_ranks(self, d: int, s: int) -> Tuple[int, int]:
        """dim S(d, s), and the differential's rank there."""
        if (d, s) not in self._ranks:
            C, R = self._subspaces(d, s)
            self._ranks[(d, s)] = (C.dim - len(R),
                                   self._differential_rank(d, s, C, R))
            self._release(d, s)
            self._release(d - 1, s + 1)
        return self._ranks[(d, s)]

    def _check_square(self, d: int, C: Subspace):
        """delta^2 = 0 from (d, 0): the differential of (d - 1, 1) vanishes
        on the images of the basis vectors of C(d, 0), and so, as
        delta(u (x) omega) = (delta u) ^ omega, at every s.  It reads the
        rows that are the ranks' columns transposed; into a zero
        (d - 1, 1) it holds trivially."""
        if self._subspaces(d - 1, 1)[0].dim == 0:
            return
        delta = self._differential(C.ambient)
        after = dict(enumerate(self._differential(delta.codomain).rows))
        if any(any(_times(row, after).values()) for row in delta.rows):
            raise NotASubcomplex(
                "the differential does not square to zero at degree %d" % d)

    def _check_restriction(self, d: int, delta: _KoszulMap,
                           R: Collection[Vec], R_next: Collection[Vec]):
        """S(d, 0) -> S(d - 1, 1): each column of pi(d - 1, 1) composed
        with the differential (the rows of delta, the rows that the ranks'
        columns are, transposed) lies in the span of pi(d, 0)'s columns, so
        that rank [pi(d, 0); pi(d - 1, 1) o delta] = rank pi(d, 0)."""
        columns = _transposed(delta.rows)
        composed = [_times(row, columns) for row in R_next]
        if len(echelon(chain(R, composed), canonical=False)) != len(R):
            raise NotASubcomplex(
                "differential leaves the cells at degree %d" % d)

    def _differential_rank(self, d: int, s: int, C: Subspace,
                           R: Collection[Vec]) -> int:
        """Rank of the differential on S(d, s), on the differential's
        columns less those cleared by the rank at (d - 1, s + 1), then
        pi(d, s)'s; at s = 0 also the checks of degree d."""
        if d < 1 or s >= self.top:
            return 0
        if s > 0:
            self._cell_ranks(d, 0)
        cleared = self._pivots.pop((d - 1, s + 1), ())
        if C.dim == 0:
            return 0
        if s == 0 and d >= 2 and self.top >= 2 and d not in self._squared:
            # Ranks of degree d are cleared only by ranks at (d - 1, s + 1)
            # with d - 1 >= 1 and s + 1 < top.
            self._check_square(d, C)
            self._squared.add(d)
        delta = self._differential(C.ambient)
        R_next = self._subspaces(d - 1, s + 1)[1]
        if s == 0 and R_next:
            self._check_restriction(d, delta, R, R_next)
        piv = _pivot_rows(chain(delta.leads(cleared), R))
        if s > 0 and (d + 1, s - 1) not in self._ranks:
            self._pivots[(d, s)] = set(piv)
        return len(piv) - len(R)

    def H(self, d: int, s: int) -> int:
        """Cohomology dimension at (d, s); 0 outside the complex."""
        if d < 0 or s < 0 or s > self.top:
            return 0
        quotient, outgoing = self._cell_ranks(d, s)
        h = quotient - outgoing
        if s >= 1:
            h -= self._cell_ranks(d + 1, s - 1)[1]
        if h < 0:
            raise NotASubcomplex("negative cohomology at (%d, %d)" % (d, s))
        return h

    def table(self, d_range: Iterable[int], s_range: Iterable[int],
              source: str) -> CohomologyTable:
        return CohomologyTable(source, {(d, s): self.H(d, s)
                                        for d in d_range for s in s_range})


class _ValueSplit:
    """A direct sum of complexes with multiplicities: H(d, s) is the sum of
    k * H(d, s) over the (k, complex) parts, which share their top."""

    def __init__(self, parts: Sequence[Tuple[int, CochainComplex]]):
        self.parts = parts
        self.top = parts[0][1].top

    def H(self, d: int, s: int) -> int:
        return sum(k * cx.H(d, s) for k, cx in self.parts)

    table = CochainComplex.table


class GradeShape(TensorShape):
    """g_d (x) Lambda^s V* in the coordinates of g_d: base_dim counts the
    basis rows of g_d, which take the place of the monomials of
    S^d V* (x) W, so the value factor is 1; sym_degree keeps d."""

    __slots__ = ()

    @property
    def sym_count(self) -> int:
        return self.base_dim


class _KoszulMap:
    """sum_i D_i (x) (e^i ^ .) from the GradeShape cell of g_d (x) Lambda^s
    into the cell of (d - 1, s + 1), read off the lowering table of degree
    d (per direction i, coordinate p of g_(d-1) -> the pairs (u, D_i u [p])).

    One builder gives the matrix, column by column: per coordinate (p, K)
    of the codomain, the entries sign(i, K) D_i u [p] at (u, K - i) for i
    in K, which fall on distinct domain columns.  The engine's ranks take
    those columns deferred (see exactla._pivot_rows), each filed under its
    least key, which leads reads off the table without building the
    column.  So a rank builds a column only when its lead meets a pivot
    or a later column meets its lead, and refuses one that does not lead
    at its key.  The table writes D_i u in the basis of g_(d-1) scaled to
    pivot entries 1, which scales each column by a positive number and
    changes neither a rank nor a pivot set.  The rows, which only the
    engine's delta^2 and restriction checks compose, are those same
    columns transposed, from the same builder, in the primitive basis of
    both cells, times the lcm of the scales: the entries of coordinate p times
    lcm / scale[p], where scale[p] is the pivot entry of g_(d-1)'s
    primitive row p (1 in monomial coordinates): integers over an integer
    table, and a positive multiple of the map, which is all that a test
    of vanishing or of a span reads."""

    def __init__(self, domain: GradeShape, codomain: TensorShape,
                 table: LoweringTable, scale: Sequence[int]):
        self.domain = domain
        self.codomain = codomain
        self._table = table
        self._scale = scale
        self._wc = domain.wedge_count
        # Flat codomain column of coordinate p tensor the first form.
        w, wc = codomain.value_dim, codomain.wedge_count
        self._base = [p // w * wc * w + p % w
                      for p in range(codomain.sym_count * w)]

    def _faces(self) -> Iterator[Tuple[int, List[Tuple[int, int, int]]]]:
        """Per form K of the codomain: the offset of K in its flat columns,
        and per i in K the face (i, sign of e^i ^ e_(K - i), K - i)."""
        w = self.codomain.value_dim
        J_index = _wedge_index(self.domain.ext_dim, self.domain.ext_degree)
        for K_i, K in enumerate(self.codomain.wedge_list()):
            yield K_i * w, [(i, -1 if t % 2 else 1, J_index[K[:t] + K[t + 1:]])
                            for t, i in enumerate(K)]

    def _column(self, faces: List[Tuple[int, int, int]], p: int) -> Vec:
        """The column at coordinate p of the form with the given faces, a
        new dict that elimination may keep (see exactla.Deferred)."""
        wc, table = self._wc, self._table
        return {u * wc + J: sign * v for i, sign, J in faces
                for u, v in table[i].get(p, ())}

    def leads(self, cleared: Container[int]
              ) -> Iterator[Tuple[int, Callable[[int], Vec], int]]:
        """The nonempty columns at coordinates outside cleared, deferred:
        (least key, builder, coordinate).  The least key of the column at
        (p, K) is the least over the faces i in K of u * wc + J(K - i), u
        the first of D_i's pairs at p: they are in int_rows order, so u is
        the least, and no two faces meet and no entry is zero, so none
        cancels.  As J(K - i) falls as i rises, the faces order as their
        codes u * n + n - 1 - i do, first[i][p] (none, past all codes,
        where D_i is zero at p), so the least code names the key."""
        n = len(self._table)
        none = self.domain.dim * n
        first = [[pairs[0][0] * n + n - 1 - i if pairs else none
                  for pairs in map(low.get, range(len(self._base)))]
                 for i, low in enumerate(self._table)]
        for off, faces in self._faces():
            J_of = {n - 1 - i: J for i, _, J in faces}
            build = partial(self._column, faces)
            for p, code in enumerate(map(min, repeat(none),
                                         *(first[i] for i, _, _ in faces))):
                if code < none and self._base[p] + off not in cleared:
                    u, r = divmod(code, n)
                    yield u * self._wc + J_of[r], build, p

    @property
    def rows(self) -> List[Vec]:
        rows: List[Vec] = [{} for _ in range(self.domain.dim)]
        lcm = math.lcm(*self._scale)
        factor = [lcm // c for c in self._scale]
        for off, faces in self._faces():
            for p, flat in enumerate(self._base):
                for k, v in self._column(faces, p).items():
                    rows[k][flat + off] = v * factor[p]
        return rows


def spencer_complex(system: SymbolicSystem) -> CochainComplex | _ValueSplit:
    """g_d (x) Lambda^s on the n = base_dim directions of the family,
    with the lowering differential, in the coordinates of g_d (a full
    GradeShape cell): the differential is sum_i D_i (x) (e^i ^ .), with the
    D_i of system.lowering(d), which checked the closure and holds each
    D_i by its columns, from which the engine's columns and the delta^2
    check's rows are built (_KoszulMap).  Any family with base_dim,
    grade(d) and lowering(d) will do: covariants' h/lambda(g) and g along
    tau's frame are two.  A zero grade gets zero cells, on which the
    engine builds no map.  ``.restricted(...)`` gives the complex of the
    kernels of a restriction inside these cells (see CochainComplex).

    A SymbolicSystem whose top supplied grade is full is full in every
    grade (closure fills the grades below it, prolongation those above).
    Its complex is value_dim copies of the scalar full one, as the
    differential is the identity on the value factor."""
    n = system.base_dim
    if (isinstance(system, SymbolicSystem) and system.value_dim > 1
            and system.grade(system.top).is_full):
        return _ValueSplit([(system.value_dim, spencer_complex(
            SymbolicSystem(n, 1, {}, fill="full")))])

    def cell(d: int, s: int) -> Subspace:
        g = system.grade(d)
        if g.dim == 0:
            return Subspace.zero(TensorShape(g.ambient.base_dim, d, s,
                                             g.ambient.value_dim, ext_dim=n))
        return Subspace.full(GradeShape(g.dim, d, s, 1, n))

    def differential(dom: GradeShape) -> _KoszulMap:
        d = dom.sym_degree
        lower = system.grade(d - 1)
        scale = ([1] * lower.dim if lower.is_full else
                 [row[c] for c, row in zip(lower.pivots, lower.int_rows)])
        return _KoszulMap(dom, cell(d - 1, dom.ext_degree + 1).ambient,
                          system.lowering(d), scale)

    return CochainComplex(n, cell, differential)


def spencer_H(system: SymbolicSystem, i: int, j: int) -> int:
    """Dimension of the lowering-complex cohomology at bidegree (i, j)."""
    return spencer_complex(system).H(i, j)


def spencer_table(system: SymbolicSystem, i_range: Iterable[int],
                  j_range: Iterable[int], source: str = "spencer") -> CohomologyTable:
    return spencer_complex(system).table(i_range, j_range, source)


# ---------------------------------------------------------------------------
# characteristic tests


def _substituted(mono: Tuple[int, ...],
                 forms: Sequence[Mapping[int, int | Fraction]],
                 n: int) -> Dict[Tuple[int, ...], int | Fraction]:
    """x^mono with each x_j replaced by the linear form forms[j] (a dict
    a -> coefficient of y_a) in n variables y, as exponents -> coefficient,
    nonzero coefficients only."""
    out: Dict[Tuple[int, ...], int | Fraction] = {(0,) * n: 1}
    for j, e in enumerate(mono):
        for _ in range(e):
            nxt: Dict[Tuple[int, ...], int | Fraction] = {}
            for m1, v1 in out.items():
                for a, c in forms[j].items():
                    key = _raised(m1, a)
                    nxt[key] = nxt.get(key, 0) + v1 * c
            out = nxt
    return {key: v for key, v in out.items() if v}


def char_fiber(covector: Sequence[object], g_k: Subspace) -> Subspace:
    """Value vectors w with (linear form)^k (x) w inside the symbol grade."""
    shp = g_k.ambient
    if shp.ext_degree != 0:
        raise ShapeMismatch("characteristic test needs a pure symmetric grade")
    coeffs = [_exact(c) for c in covector]
    if len(coeffs) != shp.base_dim:
        raise ShapeMismatch("covector length does not match the base")
    if not any(coeffs):
        raise ZeroVector("characteristic fiber of the zero covector")
    power = _substituted((shp.sym_degree,), [dict(enumerate(coeffs))],
                         shp.base_dim)
    sym_pos = _sym_index(shp.base_dim, shp.sym_degree)
    w = shp.value_dim
    rows = []
    for b in range(w):
        vec = {shp.index(sym_pos[m], 0, b): v for m, v in power.items()}
        rows.append(g_k.quotient_coords(vec))
    return kernel_of_rows(rows, g_k.codim, TensorShape.vector(w))


def annihilator(tau: Sequence[Sequence[object]], m: int) -> Subspace:
    """Covectors vanishing on span(tau), as a subspace of the dual."""
    return kernel_of_rows(_restriction_frame(tau, m), len(tau),
                          TensorShape.vector(m))


def _cone_rows(ann: Subspace, shp: TensorShape) -> List[Vec]:
    """Rows spanning ann o S^(k-1) V* (x) W inside the degree-k shape."""
    n, k = shp.base_dim, shp.sym_degree
    sym_pos = _sym_index(n, k)
    rows: List[Vec] = []
    for alpha in ann.int_rows:
        for mono in sym_basis(n, k - 1):
            # Distinct j raise mono to distinct monomials, so no entries meet.
            for b in range(shp.value_dim):
                rows.append({shp.index(sym_pos[_raised(mono, j)], 0, b): coef
                             for j, coef in alpha.items()})
    return rows


def noncharacteristic_obstruction(tau: Sequence[Sequence[object]],
                                  g_k: Subspace) -> Subspace:
    """Intersection of Ann(tau) o S^(k-1) V* (x) V with the symbol grade."""
    shp = g_k.ambient
    if shp.sym_degree < 1:
        raise DegreeUnderflow("needs symbol order at least 1")
    cone = Subspace.from_rows(
        shp, _cone_rows(annihilator(tau, shp.base_dim), shp))
    return subspace_intersect(cone, g_k)


def strongly_noncharacteristic(tau: Sequence[Sequence[object]],
                               g_k: Subspace) -> bool:
    """True when no nonzero symbol element has all arguments degenerate on tau."""
    return noncharacteristic_obstruction(tau, g_k).dim == 0
