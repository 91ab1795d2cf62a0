"""Flagged restriction machinery: covariants of a pseudogroup action on jets.

Everything here is relative to a flag: an ambient tangent space V of
dimension m and a distinguished subspace tau of dimension n spanned by
given vectors (the tangent to a submanifold germ), with quotient
nu = V/tau of dimension r = m - n.

The restriction map sends a symbol element of ``S^l V* (x) V`` to
``S^l tau* (x) nu`` by restricting all symmetric arguments to tau and
projecting the value.  Its kernel has two visible pieces (annihilator
factor, value inside tau) whose sum is the whole kernel; the quotient of
the equation symbol by the image of the group symbol is the space of
covariants, and its vanishing is transversality of the action at this
flag and order.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial
from types import SimpleNamespace
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .errors import (AmbientMismatch, ConsistencyCheckFailed, DegreeUnderflow,
                     EquationNotInvariant, ParamOutOfRange, ShapeMismatch)
from .exactla import (IntVec, LinearMap, Subspace, TensorShape, Vec,
                      _back_substitute, _exact, _sym_index, contains, det,
                      echelon, image, preimage, subspace_intersect,
                      subspace_sum, wedge_basis)
from .symbolic import (CochainComplex, LoweringTable, SymbolicSystem,
                       _ValueSplit, _lowered, _lowering_table, _raised,
                       _restriction_frame, _substituted, _transposed,
                       annihilator, spencer_complex,
                       strongly_noncharacteristic)


class FlagContext:
    """Ambient dimension m with a distinguished n-dim subspace tau.

    tau_basis rows are vectors in V; the quotient nu = V/tau carries the
    canonical basis of non-pivot coordinates of tau's reduced form, and
    rho[j] = {a: tau[a][j]} is the covector e^j restricted to the given
    tau basis.  The flag's tables run along tau's frame instead, the
    primitive integer rows t_a of tau_space: a tau-form cell holds all of
    Lambda^s tau*, so a change of basis of tau is an isomorphism of
    complexes, and the kernels of the restrictions do not depend on it;
    along the frame the lowering tables, the delta^2 check and the ranks
    run in ints on every flag.  ``form_restriction(s)`` is Lambda^s of the
    restriction of forms along the frame, by its columns, and
    ``integral_restriction(l)`` the order-l restriction along it, with the
    projection to nu scaled to integers.  Per flag it keeps each order's
    restriction kernel, each system's restriction on its grades and each
    system's complex along the frame (_framed); _scalar is the scalar
    full system on V, into whose complexes a full system's tables split.
    """

    def __init__(self, m: int, tau_basis: Sequence[Sequence[object]]):
        self.m = m
        self.tau = tuple(tuple(_exact(x) for x in row) for row in tau_basis)
        self.n = len(self.tau)
        self.r = m - self.n
        if self.n < 1 or self.r < 1:
            raise ParamOutOfRange("flag needs 1 <= dim tau < m")
        for row in self.tau:
            if len(row) != m:
                raise ShapeMismatch("tau vector length differs from m")
        self.tau_space = Subspace.from_dense(TensorShape.vector(m), self.tau)
        if self.tau_space.dim != self.n:
            raise ShapeMismatch("tau basis vectors are linearly dependent")
        self.ann = annihilator(self.tau, m)
        self.rho = _restriction_frame(self.tau, m)
        frame = [[row.get(j, 0) for j in range(m)]
                 for row in self.tau_space.int_rows]
        self.form_restriction = lru_cache(maxsize=None)(
            partial(_form_restriction, frame))
        self._int_rho = _restriction_frame(frame, m)
        self._scalar = SymbolicSystem(m, 1, {}, fill="full")
        self._restrictions: Dict[Tuple[SymbolicSystem, int],
                                 Sequence[Vec]] = {}
        self._kernels: Dict[int, Subspace] = {}
        self._framed: Dict[SymbolicSystem, CochainComplex] = {}

    def value_projection(self, b: int) -> Vec:
        """Coordinates of the b-th ambient basis vector in nu = V/tau."""
        return self.tau_space.quotient_coords({b: 1})

    def integral_restriction(self, l: int) -> LinearMap:
        """The order-l restriction along the integer rows of tau_space,
        with integer entries; its kernel is restriction_kernel's."""
        return _restriction(self, l, self._int_rho, self._int_projection,
                            self.r)

    @cached_property
    def _int_projection(self) -> List[Vec]:
        """value_projection times the lcm of tau_space's pivot entries: the
        projection to nu with integer entries."""
        scale = math.lcm(*(row[c] for c, row in zip(self.tau_space.pivots,
                                                     self.tau_space.int_rows)))
        return [{k: int(v * scale) for k, v in
                 self.value_projection(b).items()} for b in range(self.m)]


def _form_restriction(frame: Sequence[Sequence[int]],
                      s: int) -> List[IntVec]:
    """Lambda^s V* -> Lambda^s tau* along the frame rows, by its columns:
    per K in wedge_basis(n, s), the minors J -> det frame[K][J], nonzero
    ones only.  The frame rows are independent, so the columns are."""
    m = len(frame[0])
    return [{j: v for j, J in enumerate(wedge_basis(m, s))
             if (v := det([[frame[a][c] for c in J] for a in K]))}
            for K in wedge_basis(len(frame), s)]


def restriction_map(ctx: FlagContext, l: int) -> LinearMap:
    """S^l V* (x) V  ->  S^l tau* (x) nu.

    Restricts the symmetric arguments to tau and projects the value to the
    quotient; its kernel is restriction_kernel.
    """
    return _restriction(ctx, l, ctx.rho,
                        [ctx.value_projection(b) for b in range(ctx.m)],
                        ctx.r)


def _restriction(ctx: FlagContext, l: int, rho: Sequence[Vec],
                 proj: Sequence[Vec], r: int) -> LinearMap:
    """restriction_map along the covector restrictions rho, with the value
    projections proj, one per value coordinate of the domain, into r
    value coordinates."""
    n = ctx.n
    dom = TensorShape(ctx.m, l, 0, len(proj))
    cod = TensorShape(n, l, 0, r)
    cod_sym = _sym_index(n, l)
    rows: List[Vec] = []
    for mono in dom.sym_list():
        sym_img = _substituted(mono, rho, n)
        # Distinct (monomial, value) pairs are distinct columns, and each
        # factor is nonzero, so no entries meet.
        for pb in proj:
            rows.append({cod.index(cod_sym[mt], 0, vi): sv * pv
                         for mt, sv in sym_img.items()
                         for vi, pv in pb.items()})
    return LinearMap(dom, cod, rows)


def _canonical_sum(shape: TensorShape, rows: Iterable[Vec],
                   what: str) -> Subspace:
    """The span of primitive rows with positive leading entries that lead
    at distinct columns, as a canonical Subspace: rows that lead at
    distinct columns are independent, so back-substitution alone gives the
    reduced echelon form.  Two rows at one leading column raise
    ConsistencyCheckFailed."""
    piv: Dict[int, Vec] = {}
    for row in rows:
        lead = min(row)
        if lead in piv:
            raise ConsistencyCheckFailed(
                "two %s basis rows lead at column %d" % (what, lead))
        piv[lead] = row
    _back_substitute(piv)
    return Subspace(shape, piv)


def restriction_kernel(ctx: FlagContext, l: int) -> Subspace:
    """Kernel of the order-l restriction: annihilator-headed symbols plus
    symbols valued inside tau, assembled in canonical form.

    Splitting V as tau + nu', with nu' the unit vectors at the non-pivot
    columns of tau's reduced form, the kernel is the direct sum
    (ann . S^(l-1)) (x) nu' + S^l (x) tau.  Each canonical tau row on the
    block of a monomial M leads at (M, its pivot).  The canonical rows
    alpha_k of ann are a Groebner basis of the linear ideal they generate
    (descending lex is a monomial order), so for each M divisible by a
    pivot variable x_(p_k), the least such k gives alpha_k . (M / x_(p_k)),
    which leads at M; tensor e_b it leads at (M, b) for b in nu'.  All rows
    lead at distinct columns and need only back-substitution.
    """
    if l < 1:
        raise DegreeUnderflow("restriction kernel needs order >= 1")
    m = ctx.m
    shp = TensorShape(m, l, 0, m)
    sym_pos = _sym_index(m, l)
    nu = [b for b in range(m) if b not in ctx.tau_space.pivots]
    ann = list(zip(ctx.ann.pivots, ctx.ann.int_rows))
    rows: List[Vec] = []
    for i, mono in enumerate(shp.sym_list()):
        for t in ctx.tau_space.int_rows:
            rows.append({i * m + b: c for b, c in t.items()})
        p, alpha = next(((p, a) for p, a in ann if mono[p]), (None, None))
        if alpha is not None:
            base = _lowered(mono, p)
            # Distinct j raise base to distinct monomials.
            cols = [(sym_pos[_raised(base, j)] * m, c)
                    for j, c in alpha.items()]
            rows.extend({col + b: c for col, c in cols} for b in nu)
    return _canonical_sum(shp, rows, "restriction-kernel")


def _kernel(ctx: FlagContext, l: int) -> Subspace:
    """restriction_kernel(ctx, l), built once per flag and order."""
    if l not in ctx._kernels:
        ctx._kernels[l] = restriction_kernel(ctx, l)
    return ctx._kernels[l]


def stationary_subspace(ctx: FlagContext, g_l: Subspace) -> Subspace:
    """Symbols in g_l that restrict to zero: g_l meet restriction_kernel.

    At order 0 the restriction is the quotient projection, so the
    stationary part is the tau-directions inside g_l.
    """
    shp = g_l.ambient
    if shp != TensorShape(ctx.m, shp.sym_degree, 0, ctx.m):
        raise AmbientMismatch("symbol grade does not live over the flag")
    if shp.sym_degree == 0:
        return subspace_intersect(g_l, Subspace.from_dense(shp, ctx.tau))
    return subspace_intersect(g_l, _kernel(ctx, shp.sym_degree))


class CovariantReport(NamedTuple):
    """Dimensions of the order-l restriction data at one flag."""

    l: int
    dim_g: int
    dim_h: int
    dim_stationary: int
    dim_lambda_image: int
    dim_O: int
    transversal: bool
    dim_necessary_ok: bool
    caveat: Optional[str] = None

    def to_jsonable(self) -> Dict[str, object]:
        out = self._asdict()
        if self.caveat is None:
            del out["caveat"]
        return out


ORDER_ONE_CAVEAT = ("order-1 output compares infinitesimal data only; "
                    "group-level one-jet statements need more than this "
                    "linear information")


def covariants(ctx: FlagContext, g_l: Subspace,
               h_l: Optional[Subspace] = None) -> CovariantReport:
    """Report of restriction dimensions and the transversality flag.

    The flag is computed two independent ways -- vanishing covariant count
    and the subspace identity (kernel + g equals the preimage of h) -- and
    the two must agree.
    """
    shp = g_l.ambient
    l = shp.sym_degree
    if shp != TensorShape(ctx.m, l, 0, ctx.m):
        raise AmbientMismatch("symbol grade does not live over the flag")
    h_shape = TensorShape(ctx.n, l, 0, ctx.r)
    if h_l is None:
        h_l = Subspace.full(h_shape)
    elif h_l.ambient != h_shape:
        raise AmbientMismatch("equation grade has the wrong shape")
    lam = restriction_map(ctx, l)
    lam_image = image(lam, g_l)
    if not contains(h_l, lam_image):
        raise EquationNotInvariant(
            "restricted symbol leaves the equation at order %d" % l)
    # Only the dimension of the stationary part g_l meet sigma is
    # reported: dim g_l + dim sigma - dim (sigma + g_l), where the sum, also
    # the subspace identity's, adds the rank of g_l's residuals modulo
    # sigma's canonical rows.  sigma is built from the annihilator and tau,
    # not from lam, so comparing with lam's image is a check, not
    # rank-nullity.
    sigma = _kernel(ctx, l)
    total = subspace_sum(sigma, g_l)
    dim_stat = g_l.dim + sigma.dim - total.dim
    if g_l.dim - dim_stat != lam_image.dim:
        raise ConsistencyCheckFailed(
            "stationary and image dimensions do not add up at order %d" % l)
    dim_O = h_l.dim - lam_image.dim
    by_count = dim_O == 0
    by_spaces = total == preimage(lam, h_l)
    if by_count != by_spaces:
        raise ConsistencyCheckFailed(
            "covariant count and subspace identity disagree at order %d" % l)
    return CovariantReport(
        l=l, dim_g=g_l.dim, dim_h=h_l.dim, dim_stationary=dim_stat,
        dim_lambda_image=lam_image.dim, dim_O=dim_O, transversal=by_count,
        dim_necessary_ok=g_l.dim >= h_l.dim,
        caveat=ORDER_ONE_CAVEAT if l == 1 else None)


# ---------------------------------------------------------------------------
# the four-row diagram: cell constructors and cochain complexes


def _grade_restriction(ctx: FlagContext, gsys: SymbolicSystem,
                       d: int) -> Sequence[Vec]:
    """The restriction on g_d: per basis row of g_d (in int_rows order, the
    ambient basis when g_d is full), its image under
    ctx.integral_restriction(d), or on a scalar system under the
    restriction of the symmetric arguments alone.  Its kernel in g_d is
    stat_d.  Computed once per flag, system and d."""
    key = (gsys, d)
    if key not in ctx._restrictions:
        lam = (_restriction(ctx, d, ctx._int_rho, [{0: 1}], 1)
               if gsys.value_dim == 1 else ctx.integral_restriction(d))
        g = gsys.grade(d)
        ctx._restrictions[key] = (lam.rows if g.is_full else
                                  [lam.apply(row) for row in g.int_rows])
    return ctx._restrictions[key]


class _RestrictedColumns:
    """The columns l (x) phi of pi = lambda_d (x) phi_s on a GradeShape
    cell of shape under a restriction (see CochainComplex): l over
    independent functionals on the basis rows p of g_d, phi over the
    independent columns of a map of s-forms.  Such products are
    independent, and l (x) phi sits at p * wedge_count + J.  Its length is
    their number, and each pass builds them anew: they are dense, and a
    cell outlives the rank that reads them."""

    __slots__ = ("functionals", "forms", "shape")

    def __init__(self, functionals: Sequence[IntVec],
                 forms: Sequence[IntVec], shape: TensorShape):
        self.functionals = functionals
        self.forms = forms
        self.shape = shape

    def __len__(self) -> int:
        return len(self.functionals) * len(self.forms)

    def __iter__(self) -> Iterator[IntVec]:
        wc = self.shape.wedge_count
        for l in self.functionals:
            split = [(p * wc, v) for p, v in l.items()]
            for phi in self.forms:
                yield {base + J: v * f for base, v in split
                       for J, f in phi.items()}


def _restrictions(ctx: FlagContext, gsys: SymbolicSystem,
                  forms: Callable[[int], Sequence[IntVec]]
                  ) -> Callable[[int, int, TensorShape], _RestrictedColumns]:
    """pi(d, s) = lambda_d (x) forms(s) on the cells of a complex of g, by
    its columns: lambda_d's functionals on g_d are one echelon per degree
    of the columns of _grade_restriction, forms(s) the columns of a map of
    s-forms."""

    @lru_cache(maxsize=None)
    def functionals(d: int) -> Tuple[IntVec, ...]:
        columns = _transposed(_grade_restriction(ctx, gsys, d))
        return tuple(echelon(columns.values(), canonical=False).values())

    def restriction(d: int, s: int,
                    shape: TensorShape) -> _RestrictedColumns:
        return _RestrictedColumns(functionals(d), forms(s), shape)

    return restriction


def _unit_forms(n: int, s: int) -> List[IntVec]:
    """The identity of Lambda^s on n directions, by its columns."""
    return [{K: 1} for K in range(math.comb(n, s))]


def _is_full(ctx: FlagContext, gsys: SymbolicSystem) -> bool:
    """Whether gsys, checked to live over the flag, is full in every grade:
    its top supplied grade is (closure fills the grades below it,
    prolongation those above)."""
    if gsys.base_dim != ctx.m or gsys.value_dim != ctx.m:
        raise AmbientMismatch("symbol system does not live over the flag")
    return gsys.grade(gsys.top).is_full


def _kernel_complex(ctx: FlagContext, gsys: SymbolicSystem,
                    base: Callable[[SymbolicSystem], CochainComplex],
                    forms: Callable[[int], Sequence[IntVec]]
                    ) -> CochainComplex | _ValueSplit:
    """The kernel of pi = lambda_d (x) forms(s) in the complex base(g).

    On a full g, lambda_d is lambda_sym (x) proj_nu, and the differential
    is the identity on the value factor, so in a value basis adapted to
    V = tau + nu' the kernel splits: n copies of base of the scalar full
    system (values in tau, on which proj_nu vanishes) plus r copies of its
    kernel of lambda_sym (x) forms(s) (values in nu', which proj_nu sends
    isomorphically onto nu).  The kernel shares the scalar complex's
    differential, so its maps are built and delta^2 = 0 is checked once
    for both."""
    full = _is_full(ctx, gsys)
    system = ctx._scalar if full else gsys
    cx = base(system)
    kernel = cx.restricted(_restrictions(ctx, system, forms))
    return _ValueSplit([(ctx.n, cx), (ctx.r, kernel)]) if full else kernel


def stationary_row_complex(ctx: FlagContext, gsys: SymbolicSystem
                           ) -> CochainComplex | _ValueSplit:
    """The stationary row, with cells
    S(d, s) = g_d (x) (ann ^ Lambda^(s-1) V*) + stat_d (x) Lambda^s V*,
    read off g's Spencer complex: S(d, s) is the kernel of
    pi = lambda_d (x) (Lambda^s V* -> Lambda^s tau*) on its cell
    g_d (x) Lambda^s V*, where the factors' kernels are stat_d and the
    annihilator ideal.  The engine ranks pi's columns with the
    differential's and never builds S; pi is taken along tau's frame
    (ctx.integral_restriction, ctx.form_restriction), and its functionals
    on g_d are one echelon per degree.  The clearing holds because
    pi(d, s) o delta = delta_Q o pi(d + 1, s - 1), with delta_Q the
    differential along tau of lambda(g) (x) Lambda tau*: restriction
    commutes with lowering along tau.

    A full system's row splits (_kernel_complex) into n copies of the
    scalar full Spencer complex and r copies of its kernel.  Their tables
    are known: the scalar complex is the Koszul complex of V*, exact but
    at (0, 0), and the kernel is that of a chain map onto tau's Koszul
    complex, exact but at (0, 0) too, where the map is an isomorphism on
    cohomology; so the kernel is acyclic.  So a full system's row has
    H(d, s) = n at d = s = 0 and 0 elsewhere; the split computes it, with
    every check, and the reference tests compare it with the per-cell
    complex."""
    return _kernel_complex(ctx, gsys, spencer_complex, ctx.form_restriction)


def _along(t: IntVec,
           table: LoweringTable) -> Dict[int, List[Tuple[int, int]]]:
    """sum_j t[j] D_j, the lowering along the vector t, as one direction of
    a LoweringTable: per coordinate p, the pairs (u, entry) in rising u,
    nonzero entries only."""
    sums: Dict[int, Dict[int, int]] = {}
    for j, c in t.items():
        for p, pairs in table[j].items():
            at = sums.setdefault(p, {})
            for u, v in pairs:
                at[u] = at.get(u, 0) + c * v
    return {p: pairs for p, at in sums.items()
            if (pairs := sorted((u, v) for u, v in at.items() if v))}


def _framed(ctx: FlagContext, gsys: SymbolicSystem) -> CochainComplex:
    """g_d (x) Lambda^s tau* with the differential restricted along tau:
    e^j restricts to sum_a t_a[j] tau^a, so sum_j D_j (x) (e^j ^ .) becomes
    sum_a D_(t_a) (x) (tau^a ^ .), spencer_complex of g along tau's frame,
    whose lowering along t_a is D_(t_a) = sum_j t_a[j] D_j, combined once
    per degree from gsys.lowering(d).  One per flag and system, so that
    the flag's tables share its maps and delta^2 checks."""
    if gsys not in ctx._framed:
        frame = ctx.tau_space.int_rows

        @lru_cache(maxsize=None)
        def lowering(d: int) -> LoweringTable:
            table = gsys.lowering(d)
            return tuple(_along(t, table) for t in frame)

        ctx._framed[gsys] = spencer_complex(SimpleNamespace(
            base_dim=ctx.n, grade=gsys.grade, lowering=lowering))
    return ctx._framed[gsys]


def tau_form_complex(ctx: FlagContext, gsys: SymbolicSystem,
                     stationary: bool) -> CochainComplex | _ValueSplit:
    """g_d, or its stationary part stat_d, (x) Lambda^s tau* with the
    differential restricted along tau (_framed).  stat_d (x) Lambda^s tau*
    is the kernel of lambda_d (x) id, and lambda (x) id is a chain map onto
    lambda(g) (x) Lambda tau*, so the stationary-tau complex is the framed
    one under that restriction.  A full system's tables split over the
    value factor: the restricted one into m copies of the scalar framed
    complex, the stationary-tau one (_kernel_complex) into n copies of it
    and r copies of its kernel of lambda_sym (x) id."""
    if stationary:
        return _kernel_complex(ctx, gsys, partial(_framed, ctx),
                               partial(_unit_forms, ctx.n))
    if _is_full(ctx, gsys):
        return _ValueSplit([(ctx.m, _framed(ctx, ctx._scalar))])
    return _framed(ctx, gsys)


def covariant_complex(ctx: FlagContext, gsys: SymbolicSystem,
                      hsys: Optional[SymbolicSystem]) -> CochainComplex:
    """Equation cells h_d (x) Lambda^s tau* modulo the image of
    g_d (x) Lambda^s V* under the restriction of everything.

    The restriction of forms Lambda^s V* -> Lambda^s tau* is onto, so that
    image is lambda(g_d) (x) Lambda^s tau*, with lambda the order-d
    restriction_map, taken once per degree.  h and lambda(g) are closed
    under lowering, so this is spencer_complex of Q = h/lambda(g): Q_d is
    h_d's rows reduced modulo lambda(g_d), D_i followed by that reduction.
    Grade d checks that lambda(g_d) lies in h_d (EquationNotInvariant) and
    lowers into a lambda(g_(d-1)) that is not full (NotASubcomplex)."""
    n, r = ctx.n, ctx.r
    if hsys is None:
        hsys = SymbolicSystem(n, r, {}, fill="full")
    if hsys.base_dim != n or hsys.value_dim != r:
        raise AmbientMismatch("equation system has the wrong shape")

    @lru_cache(maxsize=None)
    def restricted_grade(d: int) -> Subspace:
        return image(restriction_map(ctx, d), gsys.grade(d))

    @lru_cache(maxsize=None)
    def grade(d: int) -> Subspace:
        h, lam = hsys.grade(d), restricted_grade(d)
        if not contains(h, lam):
            raise EquationNotInvariant(
                "restricted symbol leaves the equation at degree %d" % d)
        if d >= 1 and not restricted_grade(d - 1).is_full:
            _lowering_table(lam, restricted_grade(d - 1))
        if lam.dim == 0:
            return h
        if lam.dim == h.dim:
            return Subspace.zero(h.ambient)
        return Subspace.from_rows(h.ambient,
                                  map(lam.reduce_vector, h.int_rows))

    @lru_cache(maxsize=None)
    def lowering(d: int) -> LoweringTable:
        return _lowering_table(grade(d), grade(d - 1),
                               modulo=restricted_grade(d - 1))

    return spencer_complex(SimpleNamespace(
        base_dim=n, grade=grade, lowering=lowering))


def stationary_row_cohomology(ctx: FlagContext, gsys: SymbolicSystem,
                              l: int, s: int) -> int:
    """Cohomology dimension of the stationary row at the (l-s, s) cell."""
    return stationary_row_complex(ctx, gsys).H(l - s, s)


def restricted_spencer_H(ctx: FlagContext, gsys: SymbolicSystem,
                         l: int, s: int) -> int:
    """Cohomology of g-cells with forms restricted along tau."""
    return tau_form_complex(ctx, gsys, stationary=False).H(l - s, s)


def stationary_tau_cohomology(ctx: FlagContext, gsys: SymbolicSystem,
                              l: int, s: int) -> int:
    """Cohomology of stationary-subspace cells with forms along tau."""
    return tau_form_complex(ctx, gsys, stationary=True).H(l - s, s)


def covariant_cohomology(ctx: FlagContext, gsys: SymbolicSystem,
                         hsys: Optional[SymbolicSystem], l: int,
                         s: int) -> int:
    """Cohomology of the quotient row (equation cells mod restricted symbol).

    A class at (l-s, s) is an equation-cell element whose differential
    falls into the next restricted-symbol image, modulo that image and the
    differentials from the previous cell.
    """
    return covariant_complex(ctx, gsys, hsys).H(l - s, s)


# ---------------------------------------------------------------------------
# restriction isomorphism and scans


def acyclicity_window(gsys: SymbolicSystem, i_lo: int, i_hi: int,
                      j_max: int) -> int:
    """Largest q with vanishing cohomology for all form degrees 1..q.

    Measured over symbol degrees i_lo..i_hi; returns 0 when even form
    degree 1 has a nonzero cell there.
    """
    spencer = spencer_complex(gsys)
    q = 0
    for j in range(1, j_max + 1):
        if all(spencer.H(i, j) == 0 for i in range(i_lo, i_hi + 1)):
            q = j
        else:
            break
    return q


class RestrictionIsomorphismResult(NamedTuple):
    applicable: bool
    lhs: int
    rhs: int
    strongly_noncharacteristic: bool
    window: int

    def to_jsonable(self) -> Dict[str, object]:
        return self._asdict()


def restriction_isomorphism_check(ctx: FlagContext, gsys: SymbolicSystem,
                                  l: int, s: int,
                                  k: int) -> RestrictionIsomorphismResult:
    """Compare stationary-row cohomology against its tau-form counterpart.

    Applicable when tau is strongly non-characteristic for the order-k
    symbol grade and s is below min(l - k, measured acyclicity window).
    Both sides are computed unconditionally so inapplicable cases can be
    inspected.
    """
    snc = strongly_noncharacteristic(ctx.tau, gsys.grade(k))
    q = acyclicity_window(gsys, k, max(l, k), gsys.base_dim)
    applicable = snc and s < min(l - k, q)
    lhs = stationary_row_cohomology(ctx, gsys, l, s)
    rhs = stationary_tau_cohomology(ctx, gsys, l, s)
    return RestrictionIsomorphismResult(applicable, lhs, rhs, snc, q)


class ScanEntry(NamedTuple):
    report: CovariantReport
    stationary_tau_H2_zero: bool
    restricted_H1_zero: bool

    def to_jsonable(self) -> Dict[str, object]:
        out = self.report.to_jsonable()
        out["stationary_tau_H2_zero"] = self.stationary_tau_H2_zero
        out["restricted_H1_zero"] = self.restricted_H1_zero
        return out


def transversality_scan(ctx: FlagContext, gsys: SymbolicSystem,
                        hsys: Optional[SymbolicSystem],
                        l_max: int) -> List[ScanEntry]:
    """Per-order covariant reports with the vanishing-hypothesis flags.

    Once both hypothesis flags hold from some order on and the covariants
    vanish there, they must keep vanishing at every later computed order;
    this consequence is checked and raises ConsistencyCheckFailed.
    """
    stationary_tau = tau_form_complex(ctx, gsys, stationary=True)
    restricted = tau_form_complex(ctx, gsys, stationary=False)
    entries: List[ScanEntry] = []
    settled = None
    for l in range(1, l_max + 1):
        rep = covariants(ctx, gsys.grade(l), hsys.grade(l) if hsys else None)
        f2 = stationary_tau.H(l - 2, 2) == 0
        f1 = restricted.H(l - 1, 1) == 0
        entries.append(ScanEntry(rep, f2, f1))
        if settled is None:
            if f2 and f1 and rep.dim_O == 0:
                settled = l
        else:
            if f2 and f1:
                if rep.dim_O != 0:
                    raise ConsistencyCheckFailed(
                        "covariants reappeared after the vanishing hypotheses "
                        "held at order %d" % settled)
            else:
                settled = None
    return entries
