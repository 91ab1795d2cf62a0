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
import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import (Callable, Collection, Container, Dict, Iterable,
                    Iterator, List, Mapping, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .errors import (AmbientMismatch, DegreeUnderflow, MissingGrade,
                     NotASubcomplex, ShapeMismatch, ZeroVector)
from .exactla import (LinearMap, Subspace, TensorShape, Vec, _comb, _exact,
                      _pivot_rows, _sym_index, _wedge_index, echelon,
                      kernel_of_rows, preimage, subspace_intersect, sym_basis,
                      tensor_all_forms, wedge_basis)


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
    """The Koszul complex of a graded family: anything with base_dim = n,
    grade(d) (a Subspace, g_d) and lowering(d) (see _lowering_table, which
    checks that g_d lowers into g_(d-1)), such as a SymbolicSystem.  Its
    cell C(d, s) = g_d (x) Lambda^s on the n directions, d >= 0 and
    0 <= s <= top = n, has dim g_d * C(n, s) coordinates, (u, J) at
    u * C(n, s) + J for u a basis row of g_d; its differential from (d, s)
    to (d - 1, s + 1) is the _KoszulMap of family.lowering(d), which the
    engine builds once per (d, s) on a nonzero cell.  A zero grade has
    zero cells, on which no map is built.

    With a restriction, the cell that counts is the kernel S(d, s) of a
    map pi(d, s) on C(d, s): ``restriction(d, s, wc)``, wc = C(n, s), gives
    pi(d, s) by its columns, independent integer functionals on C's
    coordinates, as a collection that may be iterated more than once and
    whose every pass gives new rows, which elimination keeps.  S(d, s) is
    never built: dim S = dim C - rank pi, and the rank of the differential
    on S is the rank of the differential's columns together with pi's,
    less rank pi, since the span of both annihilates exactly the kernel of
    the differential inside S.  One non-canonical echelon takes the
    differential's sparse columns first and pi's few dense ones last, so
    that no sparse column is reduced by a dense one.  Without a
    restriction pi is zero and S is C.

    H(d, s) counts the elements of S(d, s) whose differential vanishes,
    modulo the differential of S(d + 1, s - 1).  Maps and ranks are
    memoized, so a table takes each rank once.  Raises NotASubcomplex
    when a count is negative, the differential leaves S, or it does not
    square to zero.

    Each rank is taken on the columns of the differential on C(d, s): one
    per coordinate of C(d - 1, s + 1), over C's coordinates.  A rank reads
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

    The checks run once per degree, on the (d, 0) cell: the first rank
    taken at a degree d >= 1 (with s < top) first takes the rank at
    (d, 0), whose nonzero cell first checks (_check) that f o delta lies
    in a span for functionals f on C(d - 1, 1): the columns of the
    differential on C(d - 1, 1) in no span, delta^2 = 0, before any rank
    of degree d is cleared (from d >= 2 into a nonzero (d - 1, 1)); and
    the columns of pi(d - 1, 1) in the span of pi(d, 0)'s, S(d, 0) into
    S(d - 1, 1).  C(d, 0) lands in C(d - 1, 1) by the lowering tables.  So
    a table whose form degrees exclude 0 still checks each degree it
    reads.  This relies on the shape of the cells: each is a sum of pieces
    u (x) omega, with u in S(d, 0) and omega in all of Lambda^s, or with u
    in a grade closed under lowering and omega in an ideal of the exterior
    algebra (the kernel of a restriction of forms).  As
    delta(u (x) omega) = (delta u) ^ omega, the checks at (d, 0) then hold
    at every s.
    """

    def __init__(self, family,
                 restriction: Optional[Callable[[int, int, int],
                                                Collection[Vec]]] = None):
        self.family = family
        self.top = family.base_dim
        self._restriction = restriction
        self._maps: Dict[Tuple[int, int], _KoszulMap] = {}
        self._ranks: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # Pivot set of the rank at (d, s), kept until (d + 1, s - 1) reads it.
        self._pivots: Dict[Tuple[int, int], Set[int]] = {}
        # Degrees d whose delta^2 = 0 from (d, 0) is checked.
        self._squared: Set[int] = set()

    def restricted(self, restriction: Callable[[int, int, int],
                                               Collection[Vec]]
                   ) -> CochainComplex:
        """The complex of the kernels of restriction in these cells, with
        the same differential: it shares this complex's maps and the
        degrees whose delta^2 = 0 either has checked."""
        cx = CochainComplex(self.family, restriction)
        cx._maps, cx._squared = self._maps, self._squared
        return cx

    def _columns(self, d: int, s: int) -> Collection[Vec]:
        """The columns of pi(d, s), none without a restriction."""
        if self._restriction is None:
            return ()
        return self._restriction(d, s, _comb(self.top, s))

    def _map(self, d: int, s: int) -> _KoszulMap:
        """The differential on C(d, s), built once per (d, s) from the
        lowering table of degree d and the pivot entries of g_(d-1)."""
        if (d, s) not in self._maps:
            lower = self.family.grade(d - 1)
            scale = ([1] * lower.dim if lower.is_full else
                     [row[c] for c, row in zip(lower.pivots, lower.int_rows)])
            self._maps[(d, s)] = _KoszulMap(self.family.lowering(d), scale, s)
        return self._maps[(d, s)]

    def _cell_ranks(self, d: int, s: int) -> Tuple[int, int]:
        """dim S(d, s), and the differential's rank there."""
        if (d, s) not in self._ranks:
            R = self._columns(d, s)
            self._ranks[(d, s)] = (cell_dim(self.family, d, s) - len(R),
                                   self._differential_rank(d, s, R))
        return self._ranks[(d, s)]

    def _check(self, d: int, functionals: Iterable[Vec],
               span: Collection[Vec], what: str):
        """f o delta lies in the span of span for each functional f on
        C(d - 1, 1), delta the differential on C(d, 0) in the primitive
        basis of both cells, times a positive number (_KoszulMap.columns);
        else NotASubcomplex, saying what."""
        columns = dict(self._map(d, 0).columns())
        composed = [v for f in functionals
                    if any((v := _times(f, columns)).values())]
        if composed and len(echelon(chain(span, composed),
                                    canonical=False)) != len(span):
            raise NotASubcomplex("%s at degree %d" % (what, d))

    def _differential_rank(self, d: int, s: int, R: Collection[Vec]) -> int:
        """Rank of the differential on S(d, s), on the differential's
        columns less those cleared by the rank at (d - 1, s + 1), then
        pi(d, s)'s; at s = 0 first the checks of degree d."""
        if d < 1 or s >= self.top:
            return 0
        if s > 0:
            self._cell_ranks(d, 0)
        cleared = self._pivots.pop((d - 1, s + 1), ())
        if self.family.grade(d).dim == 0:
            return 0
        delta = self._map(d, s)
        if s == 0:
            if (d >= 2 and self.top >= 2 and d not in self._squared
                    and self.family.grade(d - 1).dim):
                # Ranks of degree d are cleared only by ranks at
                # (d - 1, s + 1) with d - 1 >= 1 and s + 1 < top.
                self._check(d, (c for _, c in self._map(d - 1, 1).columns()),
                            (), "the differential does not square to zero")
                self._squared.add(d)
            R_next = self._columns(d - 1, 1)
            if R_next:
                self._check(d, R_next, R, "differential leaves the cells")
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


# An int past every code that _KoszulMap.leads compares.
_PAST = sys.maxsize


class _KoszulMap:
    """sum_i D_i (x) (e^i ^ .) from C(d, s) = g_d (x) Lambda^s on the n
    directions of the lowering table of degree d (per direction i,
    coordinate p of g_(d-1) -> the pairs (u, D_i u [p])) into C(d - 1,
    s + 1), both in the cells' coordinates (see CochainComplex).

    One builder gives the matrix, column by column: per coordinate (p, K)
    of the codomain, at p * C(n, s + 1) + K, the entries sign(i, K)
    D_i u [p] at (u, K - i) for i in K, which fall on distinct domain
    coordinates.  The engine's ranks take those columns deferred (see
    exactla._pivot_rows), each filed under its least key, which leads
    reads off the table without building the column.  So a rank builds a
    column only when its lead meets a pivot or a later column meets its
    lead, and refuses one that does not lead at its key.  The table writes
    D_i u in the basis of g_(d-1) scaled to pivot entries 1, which scales
    each column by a positive number and changes neither a rank nor a
    pivot set.  ``columns()`` gives every column from the same builder
    times lcm / scale[p], where scale[p] is the pivot entry of g_(d-1)'s
    primitive row p (1 where g_(d-1) is full) and lcm the lcm of the
    scales: the map in the primitive bases of both cells times lcm,
    integers over an integer table, which is all that the engine's checks
    read (a test of vanishing or of a span)."""

    def __init__(self, table: LoweringTable, scale: Sequence[int], s: int):
        self._table = table
        self._scale = scale
        self._s = s
        # The numbers of forms of the domain and of the codomain.
        self._wc, self._wk = _comb(len(table), s), _comb(len(table), s + 1)

    def _faces(self) -> Iterator[Tuple[int, List[Tuple[int, int, int]]]]:
        """Per form K of the codomain: its index, and per i in K the face
        (i, sign of e^i ^ e_(K - i), K - i)."""
        n = len(self._table)
        J_index = _wedge_index(n, self._s)
        for K_i, K in enumerate(wedge_basis(n, self._s + 1)):
            yield K_i, [(i, -1 if t % 2 else 1, J_index[K[:t] + K[t + 1:]])
                        for t, i in enumerate(K)]

    def _column(self, faces: List[Tuple[int, int, int]], p: int) -> Vec:
        """The column at coordinate p of the form with the given faces, a
        new dict that elimination may keep (see exactla.Deferred)."""
        wc, table = self._wc, self._table
        return {u * wc + J: sign * v for i, sign, J in faces
                for u, v in table[i].get(p, ())}

    def columns(self) -> Iterator[Tuple[int, Vec]]:
        """Every column with its coordinate of the codomain, times
        lcm / scale[p]."""
        lcm, wk = math.lcm(*self._scale), self._wk
        for K, faces in self._faces():
            for p, c in enumerate(self._scale):
                f = lcm // c
                yield p * wk + K, {k: v * f for k, v in
                                   self._column(faces, p).items()}

    def leads(self, cleared: Container[int]
              ) -> Iterator[Tuple[int, Callable[[int], Vec], int]]:
        """The nonempty columns at coordinates outside cleared, deferred:
        (least key, builder, coordinate).  The least key of the column at
        (p, K) is the least over the faces i in K of u * wc + J(K - i), u
        the first of D_i's pairs at p: they are in int_rows order, so u is
        the least, and no two faces meet and no entry is zero, so none
        cancels.  As J(K - i) falls as i rises, the faces order as their
        codes u * n + n - 1 - i do, first[i][p] (_PAST where D_i is zero
        at p), so the least code names the key."""
        n, wk, past = len(self._table), self._wk, _PAST
        first = [[pairs[0][0] * n + n - 1 - i if pairs else past
                  for pairs in map(low.get, range(len(self._scale)))]
                 for i, low in enumerate(self._table)]
        for K, faces in self._faces():
            J_of = {n - 1 - i: J for i, _, J in faces}
            build = partial(self._column, faces)
            for p, code in enumerate(map(min, repeat(past),
                                         *(first[i] for i, _, _ in faces))):
                if code < past and p * wk + K not in cleared:
                    u, r = divmod(code, n)
                    yield u * self._wc + J_of[r], build, p


def spencer_complex(system: SymbolicSystem) -> CochainComplex | _ValueSplit:
    """The Koszul complex of system, g_d (x) Lambda^s on its n = base_dim
    directions with the lowering differential sum_i D_i (x) (e^i ^ .), in
    the coordinates of g_d (see CochainComplex).  Any family with
    base_dim, grade(d) and lowering(d) will do: covariants' h/lambda(g)
    and g along tau's frame are two.  ``.restricted(...)`` gives the
    complex of the kernels of a restriction inside these cells.

    A SymbolicSystem whose top supplied grade is full is full in every
    grade (closure fills the grades below it, prolongation those above).
    Its complex is value_dim copies of the scalar full one, as the
    differential is the identity on the value factor."""
    if (isinstance(system, SymbolicSystem) and system.value_dim > 1
            and system.grade(system.top).is_full):
        return _ValueSplit([(system.value_dim, CochainComplex(
            SymbolicSystem(system.base_dim, 1, {}, fill="full")))])
    return CochainComplex(system)


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
