"""Built-in pseudogroup symbols: materialized subspaces and closed-form dims.

Geometric kinds (order-1 structures on the ambient manifold, fixed linear
models at a point):

* general     -- all of S^l V* (x) V
* volume      -- trace-free at order 1; higher orders are the exact
                 prolongation (divergence-free), computed, never assumed
* complex     -- commuting with J = block[[0,-I],[I,0]]; real span of
                 monomial holomorphic fields, integer coefficients
* symplectic  -- Hamiltonian: image of S^(l+1) V* under the omega-duality,
                 omega = sum dx_i ^ dx_(n+i)
* contact     -- coordinates (q_1..q_n, u, p_1..p_n), contact form
                 du - sum p_i dq^i at the point p = 0; order-l symbol
                 generated by degree-(l+1) Hamiltonians plus the degree-l
                 pure u power
* isometry    -- antisymmetric at order 1; higher orders prolonged (zero)

Jet-lifted kinds (formula-backed; materialization lives in jetcalc):

* point_lie   -- lifts of point transformations of J^0(n, r) to J^k
* contact_lie -- lifts of contact transformations (r = 1) to J^k
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import ParamOutOfRange
from .exactla import (Subspace, TensorShape, Vec, _sym_index, check_cap,
                      kernel_of_rows, sym_basis)
# Re-exported for callers that read the cap from the catalogue.
from .exactla import DEFAULT_CAP, materialization_cap  # noqa: F401
from .jetcalc import lie_symbol_subspace
from .symbolic import SymbolicSystem, _lowered, _raised, prolong

GEOMETRIC_KINDS = ("general", "volume", "complex", "symplectic", "contact",
                   "isometry")
LIE_KINDS = ("point_lie", "contact_lie")

_KIND_PARAMS = {
    "general": ("m",),
    "volume": ("m",),
    "complex": ("nc",),
    "symplectic": ("2n",),
    "contact": ("dim",),
    "isometry": ("n",),
    "point_lie": ("n", "r", "k"),
    "contact_lie": ("n", "k"),
}


class PseudogroupSpec(NamedTuple):
    kind: str
    params: Tuple[Tuple[str, int], ...]

    def param(self, name: str) -> int:
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    @property
    def ambient_dim(self) -> int:
        """Dimension of the linear model the symbol lives on."""
        kind = self.kind
        if kind in ("general", "volume"):
            return self.param("m")
        if kind == "complex":
            return 2 * self.param("nc")
        if kind == "symplectic":
            return self.param("2n")
        if kind == "contact":
            return self.param("dim")
        if kind == "isometry":
            return self.param("n")
        raise ParamOutOfRange("no single ambient dimension for %s" % kind)

    def __str__(self) -> str:
        return "%s:%s" % (self.kind,
                          ",".join("%s=%d" % kv for kv in self.params))


def make_spec(kind: str, **params: int) -> PseudogroupSpec:
    if kind not in _KIND_PARAMS:
        raise ParamOutOfRange("unknown pseudogroup kind %r" % kind)
    want = _KIND_PARAMS[kind]
    if set(params) != set(want):
        raise ParamOutOfRange(
            "%s needs parameters %s" % (kind, ", ".join(want)))
    spec = PseudogroupSpec(kind, tuple((k, int(params[k])) for k in want))
    _validate(spec)
    return spec


def _validate(spec: PseudogroupSpec):
    kind = spec.kind
    if kind in ("general", "volume") and spec.param("m") < 1:
        raise ParamOutOfRange("ambient dimension must be positive")
    if kind == "complex" and spec.param("nc") < 1:
        raise ParamOutOfRange("complex dimension must be positive")
    if kind == "symplectic":
        if spec.param("2n") < 2 or spec.param("2n") % 2:
            raise ParamOutOfRange("symplectic ambient dimension must be even")
    if kind == "contact":
        if spec.param("dim") < 3 or spec.param("dim") % 2 == 0:
            raise ParamOutOfRange("contact ambient dimension must be odd >= 3")
    if kind == "isometry" and spec.param("n") < 2:
        raise ParamOutOfRange("isometry needs ambient dimension >= 2")
    if kind == "point_lie":
        if spec.param("n") < 1 or spec.param("r") < 1 or spec.param("k") < 0:
            raise ParamOutOfRange("point_lie needs n, r >= 1 and k >= 0")
    if kind == "contact_lie":
        if spec.param("n") < 1 or spec.param("k") < 1:
            raise ParamOutOfRange("contact_lie needs n >= 1 and k >= 1")


def parse_pseudogroup(text: str) -> PseudogroupSpec:
    """Parse a spec string like "symplectic:2n=4" or "point_lie:n=1,r=2,k=1"."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _KIND_PARAMS:
        raise ParamOutOfRange("unknown pseudogroup kind %r" % kind)
    params: Dict[str, int] = {}
    if rest.strip():
        for chunk in rest.split(","):
            key, eq, val = chunk.partition("=")
            if not eq:
                raise ParamOutOfRange("bad parameter %r" % chunk)
            try:
                params[key.strip()] = int(val)
            except ValueError:
                raise ParamOutOfRange("non-integer parameter %r" % chunk)
    return make_spec(kind, **params)


# ---------------------------------------------------------------------------
# closed-form dimensions


def full_symbol_dim(m: int, l: int) -> int:
    return m * math.comb(m + l - 1, l)


def symbol_dim(spec: PseudogroupSpec, l: int,
               allow_r1_point_lift: bool = False) -> int:
    """Exact dimension of the order-l symbol (closed form, all kinds)."""
    if l < 0:
        raise ParamOutOfRange("negative order")
    kind = spec.kind
    if kind in LIE_KINDS:
        if kind == "point_lie":
            h, v = point_lie_dim(spec.param("n"), spec.param("r"),
                                 spec.param("k"), l,
                                 allow_r1_point_lift=allow_r1_point_lift)
            return h + v
        return contact_lie_dim(spec.param("n"), spec.param("k"), l)
    m = spec.ambient_dim
    if l == 0:
        return m
    if kind == "general":
        return full_symbol_dim(m, l)
    if kind == "volume":
        return full_symbol_dim(m, l) - math.comb(m + l - 2, l - 1)
    if kind == "complex":
        nc = spec.param("nc")
        return 2 * nc * math.comb(nc + l - 1, l)
    if kind in ("symplectic", "contact"):
        return math.comb(m + l, l + 1)
    if kind == "isometry":
        return math.comb(m, 2) if l == 1 else 0
    raise ParamOutOfRange("unknown kind %r" % kind)


def volume_claimed_dim(m: int, l: int) -> int:
    """Reference column for the volume probe: trace-free at order 1, the
    full space at higher orders.  The computed prolongation keeps the
    divergence constraint at every order, so the two columns split at
    l = 2; the comparison is reported, never assumed."""
    if l == 0:
        return m
    if l == 1:
        return m * m - 1
    return full_symbol_dim(m, l)


# ---------------------------------------------------------------------------
# materialized symbols


def symbol(spec: PseudogroupSpec, l: int,
           cap: Optional[int] = None) -> Subspace:
    """Materialized order-l symbol subspace of S^l V* (x) V."""
    if spec.kind not in GEOMETRIC_KINDS:
        raise ParamOutOfRange(
            "%s is formula-backed; use jetcalc materialization" % spec.kind)
    if l < 1:
        raise ParamOutOfRange("symbol order must be >= 1")
    m = spec.ambient_dim
    shp = TensorShape(m, l, 0, m)
    check_cap(shp.dim, cap)
    kind = spec.kind
    if kind == "general":
        return Subspace.full(shp)
    if kind == "volume":
        return _volume_symbol(m, l, shp)
    if kind == "complex":
        return _complex_symbol(spec.param("nc"), l, shp)
    if kind == "symplectic":
        return _symplectic_symbol(m // 2, l, shp)
    if kind == "contact":
        return _contact_symbol((m - 1) // 2, l, shp)
    if kind == "isometry":
        return _isometry_symbol(m, l, shp)
    raise ParamOutOfRange("unknown kind %r" % kind)


def _volume_symbol(m: int, l: int, shp: TensorShape) -> Subspace:
    """Divergence-free symbols; order 1 is the trace-free condition."""
    lpos = _sym_index(m, l - 1)
    rows: List[Vec] = []
    for mono in shp.sym_list():
        for b in range(m):
            row: Vec = {}
            if mono[b] > 0:
                row[lpos[_lowered(mono, b)]] = mono[b]
            rows.append(row)
    return kernel_of_rows(rows, len(lpos), shp)


def _complex_symbol(nc: int, l: int, shp: TensorShape) -> Subspace:
    """Real and imaginary parts of monomial holomorphic fields z^s d/dz_j."""
    m = 2 * nc
    spos = _sym_index(m, l)
    rows: List[Vec] = []
    for sig in sym_basis(nc, l):
        acc: Dict[Tuple[int, ...], Tuple[int, int]] = {(0,) * m: (1, 0)}
        for i, e in enumerate(sig):
            for _ in range(e):
                nxt: Dict[Tuple[int, ...], Tuple[int, int]] = {}
                for mo, (re, im) in acc.items():
                    a = _raised(mo, i)
                    ra, ia = nxt.get(a, (0, 0))
                    nxt[a] = (ra + re, ia + im)
                    b = _raised(mo, nc + i)
                    rb, ib = nxt.get(b, (0, 0))
                    nxt[b] = (rb - im, ib + re)
                acc = nxt
        for j in range(nc):
            row_re: Vec = {}
            row_im: Vec = {}
            for mo, (re, im) in acc.items():
                si = spos[mo]
                if re:
                    row_re[shp.index(si, 0, j)] = re
                    row_im[shp.index(si, 0, nc + j)] = re
                if im:
                    row_re[shp.index(si, 0, nc + j)] = im
                    row_im[shp.index(si, 0, j)] = -im
            rows.append(row_re)
            rows.append(row_im)
    return Subspace.from_rows(shp, rows)


def _hamiltonian_rows(shp: TensorShape,
                      pairs: List[Tuple[int, int]]) -> List[Vec]:
    """For each H in S^(l+1): sum over the (q, p) pairs of
    dH/dp (x) e_q - dH/dq (x) e_p.  Each entry has its own value
    coordinate, so none meet."""
    m, l = shp.base_dim, shp.sym_degree
    spos = _sym_index(m, l)
    return [{shp.index(spos[_lowered(H, a)], 0, b): sign * H[a]
             for q, p in pairs for a, b, sign in ((p, q, 1), (q, p, -1))
             if H[a]}
            for H in sym_basis(m, l + 1)]


def _symplectic_symbol(N: int, l: int, shp: TensorShape) -> Subspace:
    """Hamiltonian directions, with q_i = x_i and p_i = x_(N+i)."""
    return Subspace.from_rows(
        shp, _hamiltonian_rows(shp, [(i, N + i) for i in range(N)]))


def _contact_symbol(n: int, l: int, shp: TensorShape) -> Subspace:
    """Contact-Hamiltonian directions at the Darboux point p = 0.

    Coordinates 0..n-1 are q, n is u, n+1..2n are p.  A degree-(l+1)
    Hamiltonian f contributes its Hamiltonian row in the (q_i, p_i) pairs;
    the degree-l pure power of u contributes through the field scaling u
    and p.
    """
    m = 2 * n + 1
    u = n
    spos = _sym_index(m, l)
    rows = _hamiltonian_rows(shp, [(i, n + 1 + i) for i in range(n)])
    u_pow = tuple(l if j == u else 0 for j in range(m))
    extra: Vec = {shp.index(spos[u_pow], 0, u): 1}
    if l >= 1:
        for i in range(n):
            p_i = n + 1 + i
            mono = tuple(l - 1 if j == u else (1 if j == p_i else 0)
                         for j in range(m))
            extra[shp.index(spos[mono], 0, p_i)] = l
    rows.append(extra)
    return Subspace.from_rows(shp, rows)


def _isometry_symbol(m: int, l: int, shp: TensorShape) -> Subspace:
    if l == 1:
        rows = []
        for i in range(m):
            for j in range(i + 1, m):
                rows.append({shp.index(j, 0, i): 1, shp.index(i, 0, j): -1})
        return Subspace.from_rows(shp, rows)
    g = _isometry_symbol(m, 1, TensorShape(m, 1, 0, m))
    for _ in range(l - 1):
        g = prolong(g)
    return g


def system(spec: PseudogroupSpec, l_max: int,
           cap: Optional[int] = None) -> SymbolicSystem:
    """Symbolic system of the pseudogroup with grades 1..l_max built by
    symbol(), so each is checked against the cap."""
    m = spec.ambient_dim
    grades = {l: symbol(spec, l, cap) for l in range(1, l_max + 1)}
    return SymbolicSystem(m, m, grades)


# ---------------------------------------------------------------------------
# jet-lift dimension formulas


def _point_rank_opt_in(r: int, allow_r1_point_lift: bool) -> None:
    if r == 1 and not allow_r1_point_lift:
        raise ParamOutOfRange(
            "rank-1 point lifts are opt-in; contact lifts are the natural "
            "transformation class there")


def point_lie_dim(n: int, r: int, k: int, l: int,
                  allow_r1_point_lift: bool = False) -> Tuple[int, int]:
    """Split (horizontal, vertical) dimensions of the order-l symbol of
    point-transformation lifts from J^0(n, r) to J^k.

    k = 0 degenerates to the general pseudogroup on the total space.
    """
    if n < 1 or r < 1 or k < 0 or l < 1:
        raise ParamOutOfRange("need n, r, l >= 1 and k >= 0")
    _point_rank_opt_in(r, allow_r1_point_lift)
    C = math.comb
    if k == 0:
        base = C(n + r + l - 1, l)
        return n * base, r * base
    h = C(r + l - 1, l)
    h += sum(C(n + i - 1, i) for i in range(1, k)) * C(r + l - 2, l - 1)
    h += sum(C(n + i - 1, i) * C(r + k + l - i - 2, k + l - i - 1)
             for i in range(k, k + l))
    v = sum(C(n + i - 1, i) for i in range(0, k)) * C(r + l - 1, l)
    v += sum(C(n + i - 1, i) * C(r + k + l - i - 1, k + l - i)
             for i in range(k, k + l + 1))
    return n * h, r * v


def point_lie_total(n: int, r: int, k: int, l: int,
                    allow_r1_point_lift: bool = False) -> int:
    h, v = point_lie_dim(n, r, k, l, allow_r1_point_lift)
    return h + v


def contact_lie_dim(n: int, k: int, l: int) -> int:
    """Order-l symbol dimension of contact-transformation lifts (r = 1)
    from J^1(n, 1) to J^k, as a sum of four graded blocks."""
    if n < 1 or k < 1 or l < 1:
        raise ParamOutOfRange("need n, k, l >= 1")
    C = math.comb

    def sym(dim: int, d: int) -> int:
        return C(dim + d - 1, d) if d >= 0 else 0

    total = sum(sym(n, l + 1 - j) for j in range(0, l + 1))
    total += 1
    total += sum(sym(n, i) * sym(n, l - j)
                 for i in range(1, k) for j in range(0, l + 1))
    total += sum(sym(n, i) * sym(n, k + l - i - j)
                 for i in range(k, k + l + 1)
                 for j in range(0, k + l - i + 1))
    return total


def asymptotic_ratio_point(n: int, r: int, k: int, l: int) -> Fraction:
    """dim g^l over the leading growth term n0 * l^(n0-1)/(n0-1)!.

    The ratio tends to 1 from above.  For (n, r, k) = (1, 2, 1),
    dim g^l = (3l+10)(l+1)/2 and the ratio is 1 + (13l+10)/(3l^2); it is at
    most 6/5 exactly when l >= 23.
    """
    n0 = n + r
    dim = point_lie_total(n, r, k, l, allow_r1_point_lift=True)
    return Fraction(dim * math.factorial(n0 - 1), n0 * l ** (n0 - 1))


def asymptotic_ratio_contact(n: int, k: int, l: int) -> Fraction:
    """dim g^l over the leading growth term l^(n1-1)/(n1-1)!, n1 = 2n+1.

    The ratio tends to 1 from above.  For (n, k) = (1, 1),
    dim g^l = (l+2)(l+3)/2 and the ratio is 1 + (5l+6)/l^2; it is at most
    6/5 exactly when l >= 27 (at l = 25 it is 756/625).
    """
    n1 = 2 * n + 1
    dim = contact_lie_dim(n, k, l)
    return Fraction(dim * math.factorial(n1 - 1), l ** (n1 - 1))


def dimension_inequality(spec: PseudogroupSpec, r: int,
                         l: int) -> Tuple[int, int, bool]:
    """Necessary size condition dim g^l >= dim h^l for codimension r.

    Returns (symbol dim, equation dim, holds)."""
    m = spec.ambient_dim
    if not (1 <= r < m):
        raise ParamOutOfRange("codimension must satisfy 1 <= r < m")
    lhs = symbol_dim(spec, l)
    rhs = math.comb(m - r + l - 1, l) * r
    return lhs, rhs, lhs >= rhs


def point_lie_embed(n: int, r: int, k: int, l: int,
                    cap: Optional[int] = None,
                    allow_r1_point_lift: bool = False) -> Subspace:
    """Materialized order-l symbol of point-transformation lifts, inside
    the symmetric tensors over the full jet-space coordinates.  Small
    parameters only; the enumerated ambient dimension is capped."""
    _point_rank_opt_in(r, allow_r1_point_lift)
    return lie_symbol_subspace("point", n, r, k, l, cap=cap)


# ---------------------------------------------------------------------------
# named flag strata


# name -> (the model it needs, its unit axes as a function of the ambient
# dimension m)
_STRATA = {
    "lagrangian": ("symplectic", lambda m: range(m // 2)),
    "omega-nondegenerate": ("symplectic", lambda m: (0, m // 2)),
    "totally-real": ("complex", lambda m: range(m // 2)),
    "j-invariant-line": ("complex", lambda m: (0, m // 2)),
    "transversal-to-contact-plane": ("contact", lambda m: ((m - 1) // 2,)),
    "inside-contact-plane": ("contact", lambda m: (0,)),
}

STRATUM_NAMES = tuple(_STRATA)


def stratum_tau(spec: PseudogroupSpec, name: str) -> List[List[int]]:
    """Distinguished-subspace basis rows for a named stratum of the model."""
    if name not in _STRATA:
        raise ParamOutOfRange("unknown stratum %r" % name)
    kind, axes = _STRATA[name]
    if spec.kind != kind:
        raise ParamOutOfRange("%s stratum needs the %s model" % (name, kind))
    m = spec.ambient_dim
    return [[1 if j == i else 0 for j in range(m)] for i in axes(m)]
