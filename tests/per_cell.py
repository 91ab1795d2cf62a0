"""Reference cochain complex with the closure checked on every cell, and
the stationary-row cells built in ambient coordinates.

``spencer.symbolic.CochainComplex`` checks that the differential keeps the
cells once per degree, on the (d, 0) cell.  This reference checks it on
every cell whose differential it takes, and keeps no fast paths and no
cell release, so tests can hold the engine to it.

The engine takes the covariant table as the Koszul complex of the graded
family h/lambda(g), in the coordinates of a complement of lambda(g).  This
reference keeps the quotient by a subcomplex V: its covariant complex has
the cells h_d (x) Lambda^s tau* modulo lambda(g_d) (x) Lambda^s tau*, with
V checked inside the cells and closed under the differential on every
cell, and ranks taken on quotient coordinates.

The engine reads the stationary row off g's Spencer complex as the kernel
of a restriction and never builds its cells; ``stationary_row_space``
builds them, and ``per_cell_stationary_complex`` takes their cohomology
with the ambient ``delta_map``.

The engine takes the restricted and stationary-tau tables as the Koszul
complex of g along tau's integer frame, the second under the kernel of a
restriction.  ``per_cell_tau_form_complex`` builds their ambient cells
S^d V* (x) V (x) Lambda^s tau* from g_d or stat_d, and takes their
cohomology with ``restrict_delta``, the differential whose new form
factor is restricted along the given rows of tau.

``covariants()`` takes only the dimension of the stationary part, off the
sum of the grade and the restriction kernel; ``reference_covariants``
builds that part as the Zassenhaus meet ``zassenhaus_intersect``.
"""

from functools import lru_cache

from spencer.covariants import (ORDER_ONE_CAVEAT, CovariantReport,
                                _canonical_sum, restriction_kernel,
                                restriction_map, stationary_subspace)
from spencer.errors import (ConsistencyCheckFailed, DegreeUnderflow,
                            EquationNotInvariant, NotASubcomplex,
                            ShapeMismatch)
from spencer.exactla import (LinearMap, Subspace, TensorShape,
                             _right_block_span, _sym_index, _wedge_index,
                             contains, echelon, image, preimage, rank_of_rows,
                             tensor_all_forms, tensor_rows_with_wedge,
                             wedge_basis)
from spencer.symbolic import (_lowered, _restriction_frame, _wedge_insert,
                              delta_map)


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


def stationary_row_space(ctx, gsys, l, s, stationary=None):
    """Cell of the stationary row inside g^(l-s) (x) Lambda^s V*.

    Sum of (symbol grade) (x) (annihilator wedge lower forms) with
    (stationary subspace) (x) (all forms).  As stat_d lies in g_d, that is
    the direct sum g_d (x) W + stat_d (x) W^c, with W the reduced span of
    the annihilator wedges and W^c the unit forms at its non-pivot columns.
    Canonical rows tensor canonical rows lead at (sym, W pivot, value) of
    their pivots, and stat_d (x) e^j rows at the non-pivots j of W, so the
    rows lead at distinct columns and need only back-substitution.  stat_d
    is stationary(d), by default the stationary subspace of g_d.
    """
    m = ctx.m
    d = l - s
    shape = TensorShape(m, max(d, 0), s, m)
    if d < 0 or s > m:
        return Subspace.zero(shape)
    g = gsys.grade(d)
    wedge_rows = []
    if s >= 1:
        wpos = _wedge_index(m, s)
        for alpha in ctx.ann.int_rows:
            for L in wedge_basis(m, s - 1):
                # Each j outside L gives its own form e^j ^ e^L.
                wrow = {}
                for j, coef in alpha.items():
                    ins = _wedge_insert(j, L)
                    if ins is not None:
                        wrow[wpos[ins[1]]] = ins[0] * coef
                if wrow:
                    wedge_rows.append(wrow)
    W = echelon(wedge_rows)
    W_c = [{j: 1} for j in range(shape.wedge_count) if j not in W]
    stat = stationary(d) if stationary else stationary_subspace(ctx, g)
    return _canonical_sum(
        shape,
        tensor_rows_with_wedge(g.int_rows, g.ambient, W.values(), shape)
        + tensor_rows_with_wedge(stat.int_rows, stat.ambient, W_c, shape),
        "stationary-row")


def stationary_grades(ctx, gsys):
    """d -> the stationary subspace of g_d, each built once."""
    return lru_cache(maxsize=None)(
        lambda d: stationary_subspace(ctx, gsys.grade(d)))


def per_cell_stationary_complex(ctx, gsys, stationary=None):
    """The stationary row over the cells of stationary_row_space, with
    stat_d = stationary(d), by default the stationary subspace of g_d."""
    stationary = stationary or stationary_grades(ctx, gsys)
    return PerCellComplex(
        ctx.m,
        lambda d, s: stationary_row_space(ctx, gsys, d + s, s, stationary),
        delta_map)


def restrict_delta(tau, shape):
    """The ambient differential p (x) omega -> sum_j (d_j p) (x)
    (rho^j ^ omega) with the new form factor restricted to span(tau),
    rho^j = {a: tau[a][j]} the covector e^j restricted to the rows of tau:
    the exterior factor of domain and codomain is indexed by those rows,
    so the map can be iterated as a chain differential.  For tau the
    identity basis it is delta_map.  For a fixed (monomial, wedge) each
    (j, a) lands on its own column, so no entries meet."""
    if shape.ext_dim != len(tau):
        raise ShapeMismatch("domain forms must live on the restricted space")
    if shape.sym_degree < 1:
        raise DegreeUnderflow("differential needs symmetric degree >= 1")
    n, w, p = shape.base_dim, shape.value_dim, shape.ext_dim
    rho = _restriction_frame(tau, n)
    cod = TensorShape(n, shape.sym_degree - 1, shape.ext_degree + 1, w,
                      ext_dim=p)
    low_index = _sym_index(n, cod.sym_degree)
    wedge_index = _wedge_index(p, cod.ext_degree)
    rows = []
    for mono in shape.sym_list():
        lowerings = [(low_index[_lowered(mono, j)], mono[j], rho[j])
                     for j in range(n) if mono[j]]
        for J in shape.wedge_list():
            moves = []
            for si, e, covector in lowerings:
                for a, coef in covector.items():
                    ins = _wedge_insert(a, J)
                    if ins is not None:
                        moves.append((cod.index(si, wedge_index[ins[1]], 0),
                                      ins[0] * e * coef))
            for b in range(w):
                rows.append({c + b: v for c, v in moves})
    return LinearMap(shape, cod, rows)


def per_cell_tau_form_complex(ctx, grade):
    """Cells grade(d) (x) Lambda^s tau* in S^d V* (x) V (x) Lambda^s tau*,
    with restrict_delta along the given rows of tau: the restricted table
    for grade = gsys.grade, the stationary-tau one for grade =
    stationary_grades(ctx, gsys)."""
    return PerCellComplex(
        ctx.n, lambda d, s: tensor_all_forms(
            grade(d), TensorShape(ctx.m, d, s, ctx.m, ext_dim=ctx.n)),
        lambda shape: restrict_delta(ctx.tau, shape))


def zassenhaus_intersect(a, b):
    """Zassenhaus intersection: [a | a] over [b | 0]; an operand that is
    full gives the other, and one that is zero gives itself."""
    if a.is_full or b.dim == 0:
        return b
    if b.is_full or a.dim == 0:
        return a
    pairs = [(r, r) for r in a.int_rows] + [(r, {}) for r in b.int_rows]
    return Subspace.from_rows(a.ambient,
                              _right_block_span(pairs, a.ambient.dim))


def reference_covariants(ctx, g_l, h_l=None):
    """The report of ``covariants()``, with the stationary part built as the
    Zassenhaus meet of g_l and the restriction kernel, and both checks."""
    l = g_l.ambient.sym_degree
    if h_l is None:
        h_l = Subspace.full(TensorShape(ctx.n, l, 0, ctx.r))
    lam = restriction_map(ctx, l)
    lam_image = image(lam, g_l)
    if not contains(h_l, lam_image):
        raise EquationNotInvariant(
            "restricted symbol leaves the equation at order %d" % l)
    sigma = restriction_kernel(ctx, l)
    stat = zassenhaus_intersect(g_l, sigma)
    if g_l.dim - stat.dim != lam_image.dim:
        raise ConsistencyCheckFailed(
            "stationary and image dimensions do not add up at order %d" % l)
    dim_O = h_l.dim - lam_image.dim
    total = Subspace.from_rows(g_l.ambient, sigma.int_rows + g_l.int_rows)
    if (dim_O == 0) != (total == preimage(lam, h_l)):
        raise ConsistencyCheckFailed(
            "covariant count and subspace identity disagree at order %d" % l)
    return CovariantReport(
        l=l, dim_g=g_l.dim, dim_h=h_l.dim, dim_stationary=stat.dim,
        dim_lambda_image=lam_image.dim, dim_O=dim_O, transversal=dim_O == 0,
        dim_necessary_ok=g_l.dim >= h_l.dim,
        caveat=ORDER_ONE_CAVEAT if l == 1 else None)
