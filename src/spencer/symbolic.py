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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (AmbientMismatch, DegreeUnderflow, MissingGrade,
                     NotASubcomplex, ShapeMismatch, ZeroVector)
from .exactla import (LinearMap, Subspace, TensorShape, Vec, kernel_of_rows,
                      rank_of_rows, sym_basis, tensor_rows_with_wedge,
                      wedge_basis)


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
    """Lowering differential S^d Lambda^e -> S^(d-1) Lambda^(e+1), forms on V."""
    if shape.ext_dim != shape.base_dim:
        raise ShapeMismatch("plain differential needs forms on the base space")
    if shape.sym_degree < 1:
        raise DegreeUnderflow("differential needs symmetric degree >= 1")
    n, w = shape.base_dim, shape.value_dim
    cod = TensorShape(n, shape.sym_degree - 1, shape.ext_degree + 1, w)
    low_index = {m: i for i, m in enumerate(cod.sym_list())}
    rows: List[Vec] = []
    for mono in shape.sym_list():
        for J in shape.wedge_list():
            moves = []
            for i in range(n):
                if mono[i] == 0:
                    continue
                ins = _wedge_insert(i, J)
                if ins is None:
                    continue
                sign, J2 = ins
                moves.append((low_index[_lowered(mono, i)], cod.wedge_pos(J2),
                              sign * mono[i]))
            for b in range(w):
                rows.append({cod.index(si, wi, b): v for si, wi, v in moves})
    return LinearMap(shape, cod, rows)


def restrict_delta(tau: Sequence[Sequence[object]], shape: TensorShape) -> LinearMap:
    """Differential with the new form factor restricted to span(tau).

    ``tau`` is a list of vectors in the base space; the exterior factor of
    both domain and codomain is indexed by this list, so the map can be
    iterated as a chain differential.  For tau the identity basis it equals
    the plain differential.
    """
    p = len(tau)
    if shape.ext_dim != p:
        raise ShapeMismatch("domain forms must live on the restricted space")
    if shape.sym_degree < 1:
        raise DegreeUnderflow("differential needs symmetric degree >= 1")
    n, w = shape.base_dim, shape.value_dim
    # Integral entries stay ints, so an integer flag gives an integer map.
    tau = [[v.numerator if v.denominator == 1 else v
            for v in map(Fraction, row)] for row in tau]
    cod = TensorShape(n, shape.sym_degree - 1, shape.ext_degree + 1, w, ext_dim=p)
    low_index = {m: i for i, m in enumerate(cod.sym_list())}
    rows: List[Vec] = []
    for mono in shape.sym_list():
        for J in shape.wedge_list():
            moves: Dict[Tuple[int, int], int | Fraction] = {}
            for i in range(n):
                if mono[i] == 0:
                    continue
                si = low_index[_lowered(mono, i)]
                for a in range(p):
                    coef = tau[a][i]
                    if not coef:
                        continue
                    ins = _wedge_insert(a, J)
                    if ins is None:
                        continue
                    sign, J2 = ins
                    key = (si, cod.wedge_pos(J2))
                    val = moves.get(key, 0) + sign * mono[i] * coef
                    if val:
                        moves[key] = val
                    elif key in moves:
                        del moves[key]
            for b in range(w):
                rows.append({cod.index(si, wi, b): v
                             for (si, wi), v in moves.items()})
    return LinearMap(shape, cod, rows)


@lru_cache(maxsize=None)
def _delta_rank_scalar(n: int, d: int, e: int) -> int:
    """Rank of the differential on the full scalar-valued space."""
    if d < 1 or e >= n:
        return 0
    return rank_of_rows(delta_map(TensorShape(n, d, e, 1)).rows)


def prolong(g: Subspace) -> Subspace:
    """All of S^(k+1) V* (x) W whose lowerings in every direction land in g."""
    shp = g.ambient
    if shp.ext_degree != 0:
        raise ShapeMismatch("prolongation acts on pure symmetric grades")
    n, k, w = shp.base_dim, shp.sym_degree, shp.value_dim
    dom = TensorShape(n, k + 1, 0, w)
    if g.is_full:
        return Subspace.full(dom)
    q = g.codim
    low_index = {m: i for i, m in enumerate(shp.sym_list())}
    rows: List[Vec] = []
    for mono in dom.sym_list():
        for b in range(w):
            row: Vec = {}
            for i in range(n):
                if mono[i] == 0:
                    continue
                vec = {shp.index(low_index[_lowered(mono, i)], 0, b): mono[i]}
                for pos, v in g.quotient_coords(vec).items():
                    cur = row.get(i * q + pos, 0) + v
                    if cur:
                        row[i * q + pos] = cur
                    elif i * q + pos in row:
                        del row[i * q + pos]
            rows.append(row)
    return kernel_of_rows(rows, n * q, dom)


class SymbolicSystem:
    """Graded family g_l with lowering closure, plus on-demand extension.

    fill="prolong": missing grades above the top are prolonged; gaps raise.
    fill="full": any missing grade is the full space (equation symbols that
    constrain only the listed grades).
    """

    def __init__(self, base_dim: int, value_dim: int,
                 grades: Mapping[int, Subspace], fill: str = "prolong",
                 validate: bool = True):
        if fill not in ("prolong", "full"):
            raise ValueError("fill must be 'prolong' or 'full'")
        self.base_dim = base_dim
        self.value_dim = value_dim
        self.fill = fill
        self._grades: Dict[int, Subspace] = {}
        for l, sub in grades.items():
            if l < 0:
                raise DegreeUnderflow("grade below zero")
            want = TensorShape(base_dim, l, 0, value_dim)
            if sub.ambient != want:
                raise AmbientMismatch("grade %d has wrong ambient" % l)
            self._grades[l] = sub
        self.top = max(self._grades, default=0)
        if validate:
            self._check_closure()

    def _check_closure(self):
        for l in sorted(self._grades):
            if l < 1:
                continue
            lower = self.grade(l - 1)
            if lower.is_full:
                continue
            shp = self._grades[l].ambient
            low_index = {m: i for i, m in
                         enumerate(sym_basis(self.base_dim, l - 1))}
            lshape = lower.ambient
            for row in self._grades[l].int_rows:
                for i in range(self.base_dim):
                    vec: Vec = {}
                    for flat, v in row.items():
                        si, _, b = shp.unpack(flat)
                        mono = shp.sym_list()[si]
                        if mono[i] == 0:
                            continue
                        key = lshape.index(low_index[_lowered(mono, i)], 0, b)
                        vec[key] = vec.get(key, 0) + mono[i] * v
                    if not lower.contains_vector(vec):
                        raise NotASubcomplex(
                            "grade %d is not closed under lowering" % l)

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


def _cell_rank_after_delta(system: SymbolicSystem, i: int, j: int) -> int:
    """Rank of the differential restricted to g_i (x) Lambda^j."""
    if i < 1 or j >= system.base_dim:
        return 0
    g = system.grade(i)
    if g.dim == 0:
        return 0
    shape = TensorShape(system.base_dim, i, j, system.value_dim)
    if g.is_full:
        return system.value_dim * _delta_rank_scalar(system.base_dim, i, j)
    dmat = delta_map(shape)
    unit_wedges = [{wi: 1} for wi in range(shape.wedge_count)]
    rows = tensor_rows_with_wedge(g.int_rows, g.ambient, unit_wedges, shape)
    return rank_of_rows(dmat.apply(r) for r in rows)


def cell_dim(system: SymbolicSystem, i: int, j: int) -> int:
    if i < 0 or j < 0 or j > system.base_dim:
        return 0
    return system.grade(i).dim * math.comb(system.base_dim, j)


def spencer_H(system: SymbolicSystem, i: int, j: int) -> int:
    """Dimension of the lowering-complex cohomology at bidegree (i, j)."""
    if i < 0 or j < 0 or j > system.base_dim:
        return 0
    ker = cell_dim(system, i, j) - _cell_rank_after_delta(system, i, j)
    incoming = _cell_rank_after_delta(system, i + 1, j - 1) if j > 0 else 0
    h = ker - incoming
    if h < 0:
        raise NotASubcomplex("negative cohomology: system is not a complex")
    return h


@dataclass
class CohomologyTable:
    """A labelled table of cohomology dimensions keyed by (sym, form) degree."""

    source: str
    cells: Dict[Tuple[int, int], int]

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "cells": {"%d,%d" % k: v for k, v in sorted(self.cells.items())},
        }


def spencer_table(system: SymbolicSystem, i_range: Iterable[int],
                  j_range: Iterable[int], source: str = "spencer") -> CohomologyTable:
    cells = {}
    for i in i_range:
        for j in j_range:
            cells[(i, j)] = spencer_H(system, i, j)
    return CohomologyTable(source, cells)


# ---------------------------------------------------------------------------
# characteristic tests


def _linear_power(coeffs: Sequence[Fraction], k: int,
                  n: int) -> Dict[Tuple[int, ...], Fraction]:
    """Coefficients of (sum_j c_j x_j)^k over exponent multi-indices."""
    acc: Dict[Tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
    lin = {(_raised((0,) * n, j)): Fraction(c) for j, c in enumerate(coeffs) if c}
    for _ in range(k):
        nxt: Dict[Tuple[int, ...], Fraction] = {}
        for m1, v1 in acc.items():
            for m2, v2 in lin.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                nxt[m] = nxt.get(m, 0) + v1 * v2
        acc = nxt
    return acc


def char_fiber(covector: Sequence[object], g_k: Subspace) -> Subspace:
    """Value vectors w with (linear form)^k (x) w inside the symbol grade."""
    shp = g_k.ambient
    if shp.ext_degree != 0:
        raise ShapeMismatch("characteristic test needs a pure symmetric grade")
    coeffs = [Fraction(c) for c in covector]
    if len(coeffs) != shp.base_dim:
        raise ShapeMismatch("covector length does not match the base")
    if not any(coeffs):
        raise ZeroVector("characteristic fiber of the zero covector")
    power = _linear_power(coeffs, shp.sym_degree, shp.base_dim)
    sym_pos = {m: i for i, m in enumerate(shp.sym_list())}
    w = shp.value_dim
    rows = []
    for b in range(w):
        vec = {shp.index(sym_pos[m], 0, b): v for m, v in power.items()}
        rows.append(g_k.quotient_coords(vec))
    return kernel_of_rows(rows, g_k.codim, TensorShape.vector(w))


def annihilator(tau: Sequence[Sequence[object]], m: int) -> Subspace:
    """Covectors vanishing on span(tau), as a subspace of the dual."""
    rows = []
    for j in range(m):
        rows.append({a: Fraction(t[j]) for a, t in enumerate(tau) if t[j]})
    return kernel_of_rows(rows, len(tau), TensorShape.vector(m))


def noncharacteristic_obstruction(tau: Sequence[Sequence[object]],
                                  g_k: Subspace) -> Subspace:
    """Intersection of Ann(tau) o S^(k-1) V* (x) V with the symbol grade."""
    shp = g_k.ambient
    n, k, w = shp.base_dim, shp.sym_degree, shp.value_dim
    if k < 1:
        raise DegreeUnderflow("needs symbol order at least 1")
    ann = annihilator(tau, n)
    sym_pos = {m: i for i, m in enumerate(shp.sym_list())}
    rows: List[Vec] = []
    for alpha in ann.int_rows:
        for mono in sym_basis(n, k - 1):
            for b in range(w):
                vec: Vec = {}
                for j, coef in alpha.items():
                    key = shp.index(sym_pos[_raised(mono, j)], 0, b)
                    vec[key] = vec.get(key, 0) + coef
                rows.append(vec)
    from .exactla import subspace_intersect
    cone = Subspace.from_rows(shp, rows)
    return subspace_intersect(cone, g_k)


def strongly_noncharacteristic(tau: Sequence[Sequence[object]],
                               g_k: Subspace) -> bool:
    """True when no nonzero symbol element has all arguments degenerate on tau."""
    return noncharacteristic_obstruction(tau, g_k).dim == 0
