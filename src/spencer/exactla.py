"""Exact rational linear algebra over enumerated bases of graded tensor spaces.

All arithmetic is over the rationals: scalars are ints or
``fractions.Fraction``s, and integer data stays integer.  Elimination is
fraction-free on sparse integer rows, and every subspace is stored as its
canonical reduced row echelon form scaled to primitive integer rows (gcd 1,
positive pivot), so equality of subspaces is literal equality of their
integer rows.  Fraction rows appear only at the API boundary.  No floating
point anywhere.

Frozen basis conventions (all stored expected values depend on these):

* ``S^d`` of an n-dimensional space: exponent multi-indices of length n and
  total degree d, listed in descending lexicographic order within the fixed
  degree.  For n=2, d=3 this is (3,0), (2,1), (1,2), (0,3).
* ``Lambda^e``: strictly increasing index tuples, ascending lexicographic.
* Value factor: plain indices 0..value_dim-1.
* A basis element of ``S^d Lambda^e (x) B`` is a triple
  (sym multi-index, wedge tuple, value index) with flat index
  ``(sym_index * wedge_count + wedge_index) * value_dim + value_index``.

The exterior factor may live on a different space than the symmetric factor
(``ext_dim``); this is what mixed complexes with forms along a distinguished
subspace need.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple)

from .errors import (AmbientMismatch, ConsistencyCheckFailed,
                     DegreeUnderflow, NotASubspace, ParamOutOfRange,
                     ShapeMismatch, UnsupportedDegree)

Vec = Dict[int, int | Fraction]
IntVec = Dict[int, int]

DEFAULT_CAP = 5000


def materialization_cap(override: Optional[int] = None) -> int:
    """Largest ambient dimension a space may be materialized in: override,
    else the SPENCER_CAP environment variable, else DEFAULT_CAP.  A
    negative cap raises ParamOutOfRange; a cap of 0 refuses every nonzero
    space."""
    if override is None:
        env = os.environ.get("SPENCER_CAP")
        override = int(env) if env else DEFAULT_CAP
    if override < 0:
        raise ParamOutOfRange("materialization cap %d is negative" % override)
    return override


def check_cap(dim: int, cap: Optional[int] = None):
    """Raise UnsupportedDegree, a CapExceeded, when an ambient space of
    dimension dim is above materialization_cap(cap)."""
    limit = materialization_cap(cap)
    if dim > limit:
        raise UnsupportedDegree(
            "ambient dimension %d exceeds the materialization cap %d"
            % (dim, limit))


@lru_cache(maxsize=None)
def sym_basis(n: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    """Monomial exponent multi-indices of length n, degree d, descending lex."""
    if n < 1:
        raise ShapeMismatch("symmetric factor needs a positive base dimension")
    if d < 0:
        raise DegreeUnderflow("negative symmetric degree")
    if n == 1:
        return ((d,),)
    out: List[Tuple[int, ...]] = []
    for first in range(d, -1, -1):
        for rest in sym_basis(n - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def wedge_basis(n: int, e: int) -> Tuple[Tuple[int, ...], ...]:
    """Strictly increasing e-tuples from range(n), ascending lex."""
    if e < 0:
        raise DegreeUnderflow("negative exterior degree")
    from itertools import combinations

    return tuple(combinations(range(n), e))


# Every count of a shape is a binomial coefficient, read through this cache.
_comb = lru_cache(maxsize=None)(math.comb)


@lru_cache(maxsize=None)
def _sym_index(n: int, d: int) -> Dict[Tuple[int, ...], int]:
    return {m: i for i, m in enumerate(sym_basis(n, d))}


@lru_cache(maxsize=None)
def _wedge_index(n: int, e: int) -> Dict[Tuple[int, ...], int]:
    return {w: i for i, w in enumerate(wedge_basis(n, e))}


class _Shape(NamedTuple):
    base_dim: int
    sym_degree: int
    ext_degree: int
    value_dim: int
    ext_dim: int


class TensorShape(_Shape):
    """Shape record for ``S^d (base)* (x) Lambda^e (ext)* (x) B``.

    A tuple of its five fields, ext_dim defaulting to base_dim.  Equality
    is class-strict: a subclass may lay its coordinates out differently,
    so it never equals a TensorShape with the same fields."""

    __slots__ = ()

    def __new__(cls, base_dim: int, sym_degree: int, ext_degree: int,
                value_dim: int, ext_dim: Optional[int] = None):
        if ext_dim is None:
            ext_dim = base_dim
        if base_dim < 1 or ext_dim < 0 or value_dim < 0:
            raise ShapeMismatch("dimensions out of range")
        if sym_degree < 0 or ext_degree < 0:
            raise DegreeUnderflow("negative degree in shape")
        return tuple.__new__(cls, (base_dim, sym_degree, ext_degree,
                                   value_dim, ext_dim))

    @classmethod
    def _make(cls, iterable) -> "TensorShape":
        # _replace builds through _make: validate there too.
        return cls(*iterable)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def vector(cls, w: int) -> "TensorShape":
        """A plain w-dimensional value space."""
        return cls(1, 0, 0, w)

    @property
    def sym_count(self) -> int:
        return _comb(self.base_dim + self.sym_degree - 1, self.sym_degree)

    @property
    def wedge_count(self) -> int:
        return _comb(self.ext_dim, self.ext_degree)

    @property
    def dim(self) -> int:
        return self.sym_count * self.wedge_count * self.value_dim

    def sym_list(self) -> Tuple[Tuple[int, ...], ...]:
        return sym_basis(self.base_dim, self.sym_degree)

    def wedge_list(self) -> Tuple[Tuple[int, ...], ...]:
        return wedge_basis(self.ext_dim, self.ext_degree)

    def sym_pos(self, mono: Tuple[int, ...]) -> int:
        return _sym_index(self.base_dim, self.sym_degree)[mono]

    def index(self, sym_i: int, wedge_i: int, value_i: int) -> int:
        return (sym_i * self.wedge_count + wedge_i) * self.value_dim + value_i

    def unpack(self, flat: int) -> Tuple[int, int, int]:
        value_i = flat % self.value_dim
        rest = flat // self.value_dim
        return rest // self.wedge_count, rest % self.wedge_count, value_i


def _exact(c) -> int | Fraction:
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# fraction-free elimination on sparse integer rows


def _as_int_row(vec: Mapping[int, object]) -> IntVec:
    """A new integer row with gcd 1 along vec, zero entries dropped.  The
    gcd of the entries is also the type test: it refuses a Fraction.  A
    plain copy is cheaper than a filtering one, and rows rarely hold zeros,
    so only a row with one is filtered."""
    row = dict(vec)
    if not all(row.values()):
        row = {c: v for c, v in row.items() if v}
    try:
        g = math.gcd(*row.values())
    except TypeError:
        row = {c: Fraction(v) for c, v in row.items()}
        denom = math.lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (denom // v.denominator)
               for c, v in row.items()}
        g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _stored(row: IntVec, lead) -> IntVec:
    """A compact primitive copy of row with a positive entry at lead (a
    dict keeps its size when entries are deleted, a new one does not)."""
    g = math.gcd(*row.values()) * (1 if row[lead] > 0 else -1)
    return {c: v // g for c, v in row.items()}


def _eliminate(row: IntVec, prow: IntVec, c) -> None:
    """Clear column c of row in place with the pivot row prow, a = prow[c]
    > 0: subtract (b / g) prow, b = row[c] and g = gcd(a, b), after scaling
    row by a / g unless a divides b.  No gcd of the whole row is taken."""
    a = prow[c]
    g = math.gcd(a, row[c])
    f = row[c] // g
    if g != a:
        for k in row:
            row[k] *= a // g
    for k, v in prow.items():
        w = row.get(k, 0) - f * v
        if w:
            row[k] = w
        else:
            del row[k]


def _clear_pivots(row: IntVec, hits: List[int],
                  piv: Mapping[int, IntVec]) -> IntVec:
    """row with the columns in hits cleared in place by the pivot rows
    there, which hold no pivot column of hits but their own."""
    for h in hits:
        _eliminate(row, piv[h], h)
    return row


# A deferred row: (lead, build, arg), build(arg) giving the row and lead
# its least column, known without building it.  build returns a new dict of
# nonzero entries that nothing else holds: elimination keeps it as its row.
Deferred = Tuple[object, Callable[[object], Dict[int, object]], object]


def _built(row: Deferred) -> IntVec:
    """The primitive integer row of a deferred row, positive at its lead,
    checked to be its least column: a pivot filed under a wrong lead
    would be met at a column that it does not lead, and elimination with
    it need not end.  The built dict is kept when its entries are ints of
    gcd 1 and a positive lead; else one pass divides it by the gcd, signed
    as its lead, and Fraction entries are scaled to integers first."""
    lead, build, arg = row
    r = build(arg)
    if not r or min(r) != lead:
        raise ConsistencyCheckFailed(
            "a deferred row filed under column %r leads elsewhere" % (lead,))
    try:
        g = math.gcd(*r.values())
    except TypeError:
        return _stored(_as_int_row(r), lead)
    if r[lead] < 0:
        g = -g
    return r if g == 1 else {k: v // g for k, v in r.items()}


def _pivot_rows(rows: Iterable[IntVec | Deferred]
                ) -> Dict[object, IntVec | Deferred]:
    """The non-canonical elimination of echelon, on integer rows without
    zero entries, which it keeps and reduces in place (so nothing else may
    hold them; echelon hands it copies), or deferred rows: pivot column ->
    integer row with a positive entry there, primitive unless it is a
    given row that met no pivot, or the deferred row whose lead met no
    pivot, unbuilt.  A deferred row is built once a row meets its lead, or
    when it meets a pivot itself (Bauer's emergent pairs, J. Appl. Comput.
    Topol. 5, 2021).  The keys are the pivot columns of the row space."""
    piv: Dict[object, IntVec | Deferred] = {}
    for r in rows:
        if type(r) is tuple:
            if r[0] not in piv:
                piv[r[0]] = r
                continue
            r = _built(r)
        fresh = True
        while r:
            c = min(r)
            p = piv.get(c)
            if p is None:
                # A row that met no pivot is kept as it was given or built.
                if not fresh:
                    r = _stored(r, c)
                elif r[c] < 0:
                    r = {k: -v for k, v in r.items()}
                piv[c] = r
                break
            if type(p) is tuple:
                p = piv[c] = _built(p)
            _eliminate(r, p, c)
            fresh = False
    return piv


def echelon(rows: Iterable[Mapping[int, object] | Deferred],
            canonical: bool = True) -> Dict[int, IntVec]:
    """Row reduce sparse rows; returns pivot column -> primitive integer row.

    Columns are ints, or any keys with a total order: a row's pivot is its
    least column.  The input rows are never modified: each is copied to a
    primitive integer row (_own).  A row may be given deferred, as a triple
    (lead, build, arg) (see _pivot_rows); every row is built by the time
    echelon returns.

    With canonical=True the result is fully back-substituted (each pivot
    column occurs in exactly one row), which pins the unique reduced echelon
    form of the row space.
    """
    piv = _pivot_rows(_own(rows))
    for c, row in piv.items():
        if type(row) is tuple:
            piv[c] = _built(row)
    if canonical:
        _back_substitute(piv)
    return piv


def _back_substitute(piv: Dict[int, IntVec]) -> None:
    """Clear every pivot column from the other rows, replacing them in piv.

    piv maps each row's leading (least) column to the row, primitive with a
    positive leading entry; the result is the canonical reduced echelon
    form of their span.  Pivots are taken in descending order, so each row
    meets only already reduced rows, at the columns it holds."""
    for c in sorted(piv, reverse=True):
        row = piv[c]
        hits = [h for h in row if h != c and h in piv]
        if hits:
            piv[c] = _stored(_clear_pivots(dict(row), hits, piv), c)


def _own(rows: Iterable[Mapping[int, object] | Deferred]
         ) -> Iterator[IntVec | Deferred]:
    """rows as _pivot_rows keeps them: each plain row as _as_int_row's
    new primitive row, each deferred row as it is."""
    return (r if type(r) is tuple else _as_int_row(r) for r in rows)


def rank_of_rows(rows: Iterable[Mapping[int, object] | Deferred]) -> int:
    return len(_pivot_rows(_own(rows)))


# ---------------------------------------------------------------------------
# dense square systems


def det(matrix: Sequence[Sequence[object]]) -> int | Fraction:
    """Determinant of a square matrix of ints and Fractions: an int when
    every entry is an int, else a Fraction.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on the rows
    scaled to integers: each entry stays an integer minor, so every
    division is exact, and the last pivot is the determinant."""
    rows, scale = [], 1
    for row in matrix:
        den = math.lcm(*(Fraction(v).denominator for v in row))
        rows.append([int(v * den) for v in row])
        scale *= den
    sign, prev = 1, 1
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if p is None:
            sign = 0
            break
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1:]:
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * top[k] - row[k] * top[j]) // prev
        prev = top[k]
    if all(type(v) is int for row in matrix for v in row):
        return sign * prev
    return Fraction(sign * prev, scale)


def solve(matrix: Sequence[Sequence[object]],
          rhs: Sequence[object]) -> Optional[List[Fraction]]:
    """The unique x with matrix x = rhs, as Fractions, or None when the
    square matrix is singular: one canonical echelon of the rows
    [matrix | rhs].  x is unique exactly when every column of matrix holds
    a pivot, and row i then reads p x_i = q."""
    n = len(matrix)
    piv = echelon({**dict(enumerate(row)), n: b}
                  for row, b in zip(matrix, rhs))
    if not all(i in piv for i in range(n)):
        return None
    return [Fraction(piv[i].get(n, 0), piv[i][i]) for i in range(n)]


# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of a shaped ambient space, stored in canonical RREF.

    ``piv`` maps each pivot column to its primitive integer row, all other
    pivot columns cleared, as ``echelon`` returns it; two subspaces are equal
    exactly when their ambients and rows are equal.  ``rows`` is the same
    basis as mappings column -> Fraction with pivot entries 1.
    """

    __slots__ = ("ambient", "dim", "pivots", "_piv", "_rows", "_qpos")

    def __init__(self, ambient: TensorShape, piv: Mapping[int, IntVec]):
        self.ambient = ambient
        self._piv = {c: piv[c] for c in sorted(piv)}
        self.pivots = tuple(self._piv)
        self.dim = len(self._piv)
        self._rows = None
        self._qpos = None

    def __getattr__(self, name: str):
        # Only unset slots get here: a full space builds its unit rows on
        # first use, so a cell that is only measured is never materialized.
        if name not in ("_piv", "pivots"):
            raise AttributeError(name)
        self._piv = {i: {i: 1} for i in range(self.ambient.dim)}
        self.pivots = tuple(self._piv)
        return getattr(self, name)

    @classmethod
    def from_rows(cls, ambient: TensorShape,
                  rows: Iterable[Mapping[int, object]]) -> "Subspace":
        n = ambient.dim
        piv = echelon(rows)
        if any(max(row) >= n for row in piv.values()):
            raise ShapeMismatch("row entries outside the ambient space")
        return cls(ambient, piv)

    @classmethod
    def from_dense(cls, ambient: TensorShape,
                   rows: Iterable[Sequence[object]]) -> "Subspace":
        sparse = []
        for r in rows:
            if len(r) != ambient.dim:
                raise ShapeMismatch(
                    "row length %d differs from ambient dimension %d"
                    % (len(r), ambient.dim))
            sparse.append({i: v for i, v in enumerate(r) if v})
        return cls.from_rows(ambient, sparse)

    @classmethod
    def full(cls, ambient: TensorShape) -> "Subspace":
        sub = cls(ambient, {})
        del sub._piv, sub.pivots
        sub.dim = ambient.dim
        return sub

    @classmethod
    def zero(cls, ambient: TensorShape) -> "Subspace":
        return cls(ambient, {})

    @property
    def int_rows(self) -> Tuple[IntVec, ...]:
        """The primitive integer basis rows, in pivot order."""
        return tuple(self._piv.values())

    @property
    def rows(self) -> Tuple[Vec, ...]:
        """The reduced basis rows with Fraction entries and pivot entries 1."""
        if self._rows is None:
            self._rows = tuple(
                {col: Fraction(v, row[c]) for col, v in sorted(row.items())}
                for c, row in self._piv.items())
        return self._rows

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient.dim

    def __eq__(self, other) -> bool:
        # Two full spaces are equal without building their unit rows.
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.dim == other.dim
                and (self.is_full or self._piv == other._piv))

    def __repr__(self) -> str:
        return "Subspace(dim=%d, ambient_dim=%d)" % (self.dim, self.ambient.dim)

    def reduce_vector(self, vec: Mapping[int, object]) -> Vec:
        """Residual of vec after eliminating all pivot columns.

        Clearing a pivot column brings in no other, so only those in vec are
        visited."""
        piv = self._piv
        out = {c: v for c, v in vec.items() if v}
        for c in [c for c in out if c in piv]:
            row = piv[c]
            coef = out.pop(c)
            if row[c] != 1:
                coef = Fraction(coef, row[c])
            for col, v in row.items():
                if col != c:
                    w = out.get(col, 0) - coef * v
                    if w:
                        out[col] = w
                    else:
                        del out[col]
        return out

    def residual(self, vec: Mapping[int, object]) -> IntVec:
        """A positive multiple of reduce_vector(vec), in integers: vec
        scaled to a primitive integer row, with its pivot columns cleared
        by integer multiples of their rows.  Only the pivot columns that
        vec holds are visited."""
        row = _as_int_row(vec)
        hits = [c for c in row if c in self._piv]
        return _clear_pivots(row, hits, self._piv)

    def contains_vector(self, vec: Mapping[int, object]) -> bool:
        """Whether vec lies in the span: its residual is zero."""
        return not self.residual(vec)

    def _quotient_positions(self) -> Dict[int, int]:
        if self._qpos is None:
            piv = self._piv
            self._qpos = {c: i for i, c in enumerate(
                col for col in range(self.ambient.dim) if col not in piv)}
        return self._qpos

    @property
    def codim(self) -> int:
        return self.ambient.dim - self.dim

    def quotient_coords(self, vec: Mapping[int, object]) -> Vec:
        """Coordinates of vec in ambient/self, on the non-pivot columns."""
        residual = self.reduce_vector(vec)
        pos = self._quotient_positions()
        return {pos[c]: v for c, v in residual.items()}


class LinearMap:
    """A linear map stored as one sparse image row per domain basis vector."""

    __slots__ = ("domain", "codomain", "rows")

    def __init__(self, domain: TensorShape, codomain: TensorShape,
                 rows: Sequence[Vec]):
        if len(rows) != domain.dim:
            raise ShapeMismatch("need one row per domain basis vector")
        self.domain = domain
        self.codomain = codomain
        self.rows = tuple(rows)

    def apply(self, vec: Mapping[int, object]) -> Vec:
        out: Vec = {}
        rows = self.rows
        for i, coef in vec.items():
            if not coef:
                continue
            for c, v in rows[i].items():
                w = out.get(c, 0) + coef * v
                if w:
                    out[c] = w
                elif c in out:
                    del out[c]
        return out

    def compose(self, after: "LinearMap") -> "LinearMap":
        """The map (after o self): first self, then after."""
        if self.codomain.dim != after.domain.dim:
            raise ShapeMismatch("composition shape mismatch")
        return LinearMap(self.domain, after.codomain,
                         [after.apply(r) for r in self.rows])


# ---------------------------------------------------------------------------
# subspace operations


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient != b.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """a + b: the larger operand's canonical rows, with the echelon of the
    smaller one's residuals modulo them, back-substituted.  The residuals
    hold no pivot column of the larger operand, so their pivots are new.
    An operand that is full gives itself, and one that is zero the other."""
    _check_same_ambient(a, b)
    if a.is_full or b.dim == 0:
        return a
    if b.is_full or a.dim == 0:
        return b
    small, big = sorted((a, b), key=lambda s: s.dim)
    piv = echelon(map(big.residual, small.int_rows), canonical=False)
    piv.update(big._piv)
    _back_substitute(piv)
    return Subspace(a.ambient, piv)


def _right_block_span(pairs: Iterable[Tuple[Mapping[int, object],
                                             Mapping[int, object]]],
                      width: int) -> List[IntVec]:
    """Right halves of the combinations of (left, right) row pairs whose
    left halves cancel: a non-canonical echelon of the rows
    [left | right shifted by width], keeping the rows that pivot in the
    right block."""
    piv = echelon(({**left, **{c + width: v for c, v in right.items()}}
                   for left, right in pairs), canonical=False)
    return [{c - width: v for c, v in row.items()}
            for c0, row in piv.items() if c0 >= width]


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a meet b, modulo the larger operand: each row of the smaller one,
    tagged with its index past the ambient columns, is reduced to its
    residual modulo the larger one's canonical rows.  A non-canonical
    echelon of those rows leaves, pivoting past the ambient, the
    coefficient vectors of the combinations whose residuals cancel: those
    combinations span the meet.  Residuals are as wide as the larger
    operand's codimension, not twice the ambient.  An operand that is full
    gives the other, and one that is zero gives itself."""
    _check_same_ambient(a, b)
    if a.is_full or b.dim == 0:
        return b
    if b.is_full or a.dim == 0:
        return a
    small, big = sorted((a, b), key=lambda s: s.dim)
    n = a.ambient.dim
    piv = echelon((big.residual({**row, n + i: 1})
                   for i, row in enumerate(small.int_rows)), canonical=False)
    combine = LinearMap(TensorShape.vector(small.dim), a.ambient,
                        small.int_rows)
    return Subspace(a.ambient, echelon(
        combine.apply({t - n: v for t, v in coefs.items()})
        for lead, coefs in piv.items() if lead >= n))


def contains(big: Subspace, small: Subspace) -> bool:
    _check_same_ambient(big, small)
    if big.is_full:
        return True
    return all(big.contains_vector(r) for r in small.int_rows)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    if not contains(big, small):
        raise NotASubspace("quotient of spaces without containment")
    return big.dim - small.dim


def image(f: LinearMap, s: Optional[Subspace] = None) -> Subspace:
    """f(s); the whole image of f when s is None or full."""
    if s is not None and s.ambient != f.domain:
        raise AmbientMismatch("subspace does not match map domain")
    if s is None or s.is_full:
        return Subspace.from_rows(f.codomain, f.rows)
    return Subspace.from_rows(f.codomain, (f.apply(r) for r in s.int_rows))


def kernel_of_rows(rows: Sequence[Mapping[int, object]], width: int,
                   domain: TensorShape) -> Subspace:
    """Left kernel of a row family: combinations summing to zero."""
    return Subspace.from_rows(domain, _right_block_span(
        ((r, {i: 1}) for i, r in enumerate(rows)), width))


def kernel(f: LinearMap) -> Subspace:
    return kernel_of_rows(f.rows, f.codomain.dim, f.domain)


def preimage(f: LinearMap, s: Subspace) -> Subspace:
    """All domain vectors mapped into s."""
    if s.ambient != f.codomain:
        raise AmbientMismatch("subspace does not match map codomain")
    if s.is_full:
        return Subspace.full(f.domain)
    qrows = [s.quotient_coords(r) for r in f.rows]
    return kernel_of_rows(qrows, s.codim, f.domain)


def tensor_rows_with_wedge(g_rows: Iterable[Vec], g_shape: TensorShape,
                           wedge_rows: Iterable[Vec],
                           out_shape: TensorShape) -> List[Vec]:
    """Rows of (span g_rows) tensor (span wedge_rows) inside out_shape.

    g_rows live in a degree-(d,0) shape, wedge_rows in coordinates of
    Lambda^e of the exterior space of out_shape.
    """
    if (g_shape.base_dim != out_shape.base_dim
            or g_shape.sym_degree != out_shape.sym_degree
            or g_shape.value_dim != out_shape.value_dim):
        raise ShapeMismatch("tensor factors do not match the output shape")
    w = out_shape.value_dim
    wc = out_shape.wedge_count
    out = []
    for g in g_rows:
        split = [(flat // w, flat % w, v) for flat, v in g.items()]
        for wrow in wedge_rows:
            row: Vec = {}
            for sym_i, val_i, gv in split:
                for wedge_i, wv in wrow.items():
                    row[(sym_i * wc + wedge_i) * w + val_i] = gv * wv
            out.append(row)
    return out


def tensor_all_forms(sub: Subspace, out_shape: TensorShape) -> Subspace:
    """sub tensor the whole exterior factor of out_shape.  Canonical
    primitive rows tensor unit forms stay canonical, with each leading
    column the pivot, so they are stored without elimination."""
    if sub.is_full:
        return Subspace.full(out_shape)
    units = [{i: 1} for i in range(out_shape.wedge_count)]
    rows = tensor_rows_with_wedge(sub.int_rows, sub.ambient, units, out_shape)
    return Subspace(out_shape, {min(row): row for row in rows})
