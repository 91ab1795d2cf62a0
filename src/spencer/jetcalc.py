"""Exact polynomial calculus on jet coordinates.

Variables are tuples: ('x', i) for base coordinates, ('p', j, sigma) for
the jet coordinate of the j-th fibre component along the multi-index
sigma (length n).  ('p', j, (0,...,0)) is the fibre coordinate itself.
A JetPolynomial is a sparse map from canonical monomials (variables
sorted x-first, then by fibre index and graded-lex multi-index) to
exact coefficients: an int when the coefficient is integral, a Fraction
otherwise, so integer data stays integer.

The total derivative sends order-m polynomials to order m+1.  Vector
fields on the order-k jet space are assembled from generating data
exactly; the defining cancellation of order-(k+1) variables is checked,
never assumed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (AmbientMismatch, CancellationFailure, CapExceeded,
                     ParamOutOfRange, SingularJacobian)
from .exactla import (Subspace, TensorShape, Vec, _exact, check_cap, det,
                      echelon, rank_of_rows, solve, sym_basis)
from .symbolic import _lowered, _raised

Var = Tuple
Monomial = Tuple[Tuple[Var, int], ...]

ORACLE_COLUMN_CAP = 50000


def x_var(i: int) -> Var:
    return ("x", i)


def p_var(j: int, sigma: Tuple[int, ...]) -> Var:
    return ("p", j, tuple(sigma))


def u_var(j: int, n: int) -> Var:
    return ("p", j, (0,) * n)


def var_order(v: Var) -> int:
    return 0 if v[0] == "x" else sum(v[2])


@lru_cache(maxsize=4096)
def _var_key(v: Var):
    if v[0] == "x":
        return (0, v[1], 0, ())
    return (1, v[1], sum(v[2]), v[2])


def _canonical(exps: Dict[Var, int]) -> Monomial:
    return tuple((v, exps[v]) for v in sorted(exps, key=_var_key) if exps[v])


def _lowered_at(m: Monomial, t: int) -> Monomial:
    """m with the exponent of its t-th variable lowered by one."""
    v, e = m[t]
    if e == 1:
        return m[:t] + m[t + 1:]
    return m[:t] + ((v, e - 1),) + m[t + 1:]


def _times_var(m: Monomial, v: Var) -> Monomial:
    """m times the variable v, kept in canonical order."""
    key = _var_key(v)
    for t, (w, e) in enumerate(m):
        if w == v:
            return m[:t] + ((v, e + 1),) + m[t + 1:]
        if _var_key(w) > key:
            return m[:t] + ((v, 1),) + m[t:]
    return m + ((v, 1),)


def _accumulate(out: Dict[Monomial, object], m: Monomial, c) -> None:
    """out[m] += c, dropping a zero sum and keeping integral sums int."""
    w = out.get(m, 0) + c
    if not w:
        del out[m]
    elif type(w) is int:
        out[m] = w
    else:
        out[m] = w.numerator if w.denominator == 1 else w


class JetPolynomial:
    """Polynomial in base and jet coordinates with exact coefficients:
    integral coefficients are stored as int, the others as Fraction."""

    __slots__ = ("n", "r", "terms")

    def __init__(self, n: int, r: int,
                 terms: Optional[Dict[Monomial, object]] = None):
        if n < 1 or r < 1:
            raise ParamOutOfRange("need n, r >= 1")
        self.n = n
        self.r = r
        self.terms = {}
        for m, c in (terms or {}).items():
            c = _exact(c)
            if c:
                exps: Dict[Var, int] = {}
                for v, e in m:
                    exps[v] = exps.get(v, 0) + e
                _accumulate(self.terms, _canonical(exps), c)

    @classmethod
    def _of(cls, n: int, r: int, terms: Dict[Monomial, object]):
        """Wrap terms that are already nonzero, canonical and normalized."""
        out = cls.__new__(cls)
        out.n = n
        out.r = r
        out.terms = terms
        return out

    @classmethod
    def zero(cls, n, r):
        return cls(n, r)

    @classmethod
    def const(cls, n, r, c) -> "JetPolynomial":
        return cls(n, r, {(): c})

    @classmethod
    def variable(cls, n, r, v: Var) -> "JetPolynomial":
        if v[0] == "x":
            if not 0 <= v[1] < n:
                raise ParamOutOfRange("base index out of range")
        else:
            if not 0 <= v[1] < r or len(v[2]) != n:
                raise ParamOutOfRange("jet variable out of range")
        return cls._of(n, r, {((v, 1),): 1})

    def _check(self, other: "JetPolynomial"):
        if self.n != other.n or self.r != other.r:
            raise AmbientMismatch("jet polynomials live on different spaces")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        return (self.n, self.r, self.terms) == (other.n, other.r, other.terms)

    def __add__(self, other: "JetPolynomial") -> "JetPolynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return JetPolynomial._of(self.n, self.r, out)

    def __neg__(self):
        return JetPolynomial._of(self.n, self.r,
                                 {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _exact(other)
            if not q:
                return JetPolynomial.zero(self.n, self.r)
            return JetPolynomial._of(self.n, self.r, {
                m: _exact(c * q) for m, c in self.terms.items()})
        self._check(other)
        out: Dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                exps = dict(d1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                _accumulate(out, _canonical(exps), c1 * c2)
        return JetPolynomial._of(self.n, self.r, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        out = JetPolynomial.const(self.n, self.r, 1)
        for _ in range(e):
            out = out * self
        return out

    def diff(self, v: Var) -> "JetPolynomial":
        out: Dict[Monomial, object] = {}
        for m, c in self.terms.items():
            for t, (w, e) in enumerate(m):
                if w == v:
                    _accumulate(out, _lowered_at(m, t), c * e)
                    break
        return JetPolynomial._of(self.n, self.r, out)

    @property
    def k_max(self) -> int:
        """Highest jet order among the variables that appear."""
        return max((_var_key(v)[2] for m in self.terms for v, _ in m),
                   default=0)

    def evaluate(self, point) -> Fraction:
        value = point.value if isinstance(point, JetPoint) else point.__getitem__
        total = Fraction(0)
        for m, c in self.terms.items():
            acc = c
            for v, e in m:
                acc *= value(v) ** e
            total += acc
        return total

    def __repr__(self):
        return "JetPolynomial(%d, %d, %d terms)" % (self.n, self.r,
                                                    len(self.terms))


# ---------------------------------------------------------------------------
# parsing: "3/2*x1^2*p[1,(0,1)] - u2" with 1-based surface indices


_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:/\d+)?)
  | (?P<pvar>p\[\s*\d+\s*,\s*(?:\(\s*\d+(?:\s*,\s*\d+)*\s*,?\s*\)|\d+)\s*\])
  | (?P<xvar>x\d+)
  | (?P<uvar>u\d*)
  | (?P<op>[*^+\-])
  | (?P<junk>\S)
""", re.VERBOSE)


def parse_variable(text: str, n: int, r: int) -> Var:
    text = text.strip()
    if text.startswith("x"):
        i = int(text[1:]) - 1
        if not 0 <= i < n:
            raise ParamOutOfRange("base index out of range in %r" % text)
        return x_var(i)
    if text.startswith("u"):
        j = int(text[1:]) - 1 if len(text) > 1 else 0
        if not 0 <= j < r:
            raise ParamOutOfRange("fibre index out of range in %r" % text)
        return u_var(j, n)
    if text.startswith("p["):
        body = text[2:-1]
        jtxt, _, stxt = body.partition(",")
        j = int(jtxt) - 1
        stxt = stxt.strip()
        if stxt.startswith("("):
            sigma = tuple(int(s) for s in stxt.strip("()").split(",") if s.strip())
        else:
            sigma = (int(stxt),)
        if len(sigma) != n or not 0 <= j < r or any(s < 0 for s in sigma):
            raise ParamOutOfRange("bad jet variable %r" % text)
        return p_var(j, sigma)
    raise ParamOutOfRange("unknown variable %r" % text)


def parse_jet_polynomial(text: str, n: int, r: int) -> JetPolynomial:
    tokens: List[Tuple[str, str]] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "junk":
            raise ParamOutOfRange("unexpected character %r" % m.group())
        tokens.append((kind, m.group()))

    def parse_factor(pos):
        if pos >= len(tokens):
            raise ParamOutOfRange("unexpected end of polynomial")
        kind, tok = tokens[pos]
        if kind == "num":
            if "/" in tok and not int(tok.split("/")[1]):
                raise ParamOutOfRange("zero denominator in %r" % tok)
            base = JetPolynomial.const(n, r, Fraction(tok))
        elif kind in ("xvar", "uvar", "pvar"):
            base = JetPolynomial.variable(n, r, parse_variable(tok, n, r))
        else:
            raise ParamOutOfRange("expected factor, got %r" % tok)
        pos += 1
        if pos + 1 < len(tokens) and tokens[pos] == ("op", "^"):
            ekind, etok = tokens[pos + 1]
            if ekind != "num" or "/" in etok:
                raise ParamOutOfRange("exponent must be an integer")
            base = base ** int(etok)
            pos += 2
        return base, pos

    def parse_term(pos):
        acc, pos = parse_factor(pos)
        while pos < len(tokens) and tokens[pos] == ("op", "*"):
            nxt, pos = parse_factor(pos + 1)
            acc = acc * nxt
        return acc, pos

    if not tokens:
        raise ParamOutOfRange("empty polynomial")
    total = JetPolynomial.zero(n, r)
    sign = 1
    pos = 0
    if tokens[0] in (("op", "+"), ("op", "-")):
        sign = -1 if tokens[0][1] == "-" else 1
        pos = 1
    while True:
        term, pos = parse_term(pos)
        total = total + term * sign
        if pos == len(tokens):
            return total
        if tokens[pos] == ("op", "+"):
            sign = 1
        elif tokens[pos] == ("op", "-"):
            sign = -1
        else:
            raise ParamOutOfRange("expected + or - at %r" % (tokens[pos],))
        pos += 1


# ---------------------------------------------------------------------------
# total derivatives


def total_derivative(f: JetPolynomial, i: int) -> JetPolynomial:
    """Derivative along the i-th base direction through all jet variables."""
    if not 0 <= i < f.n:
        raise ParamOutOfRange("base direction out of range")
    xi = x_var(i)
    out: Dict[Monomial, object] = {}
    for m, c in f.terms.items():
        for t, (v, e) in enumerate(m):
            if v[0] == "p":
                key = _times_var(_lowered_at(m, t),
                                 p_var(v[1], _raised(v[2], i)))
            elif v == xi:
                key = _lowered_at(m, t)
            else:
                continue
            _accumulate(out, key, c * e)
    return JetPolynomial._of(f.n, f.r, out)


def total_derivative_multi(f: JetPolynomial,
                           sigma: Sequence[int]) -> JetPolynomial:
    out = f
    for i, e in enumerate(sigma):
        for _ in range(e):
            out = total_derivative(out, i)
    return out


def horizontal_diff(f: JetPolynomial) -> List[JetPolynomial]:
    return [total_derivative(f, i) for i in range(f.n)]


# ---------------------------------------------------------------------------
# vector fields on jet space


def jet_coords(n: int, r: int, k: int) -> List[Var]:
    coords: List[Var] = [x_var(i) for i in range(n)]
    for j in range(r):
        for d in range(k + 1):
            for sigma in sorted(sym_basis(n, d)):
                coords.append(p_var(j, sigma))
    return coords


class LieField:
    """Vector field on the order-k jet space; coefficients may only use
    variables of order <= k."""

    __slots__ = ("n", "r", "k", "coeffs")

    def __init__(self, n: int, r: int, k: int,
                 coeffs: Dict[Var, JetPolynomial]):
        self.n = n
        self.r = r
        self.k = k
        clean: Dict[Var, JetPolynomial] = {}
        for v, poly in coeffs.items():
            if var_order(v) > k:
                raise CancellationFailure(
                    "coefficient attached to an order-%d coordinate on the "
                    "order-%d jet space" % (var_order(v), k))
            if poly.k_max > k:
                raise CancellationFailure(
                    "coefficient of %r mentions variables of order %d > %d"
                    % (v, poly.k_max, k))
            if poly:
                clean[v] = poly
        self.coeffs = clean

    def coefficient(self, v: Var) -> JetPolynomial:
        return self.coeffs.get(v, JetPolynomial.zero(self.n, self.r))

    def apply_to(self, f: JetPolynomial) -> JetPolynomial:
        out = JetPolynomial.zero(self.n, self.r)
        for v, poly in self.coeffs.items():
            d = f.diff(v)
            if d:
                out = out + poly * d
        return out

    def project(self, k: int) -> "LieField":
        """Drop coefficients of coordinates above order k."""
        if k < 0 or k > self.k:
            raise ParamOutOfRange("projection order out of range")
        return LieField(self.n, self.r, k,
                        {v: p for v, p in self.coeffs.items()
                         if var_order(v) <= k})

    def bracket(self, other: "LieField") -> "LieField":
        if (self.n, self.r, self.k) != (other.n, other.r, other.k):
            raise AmbientMismatch("fields live on different jet spaces")
        out: Dict[Var, JetPolynomial] = {}
        for v in set(self.coeffs) | set(other.coeffs):
            c = self.apply_to(other.coefficient(v)) \
                - other.apply_to(self.coefficient(v))
            if c:
                out[v] = c
        return LieField(self.n, self.r, self.k, out)

    def __repr__(self):
        return "LieField(n=%d, r=%d, k=%d, %d coefficients)" % (
            self.n, self.r, self.k, len(self.coeffs))


def _derivatives(phi: JetPolynomial, k: int) -> Dict[Tuple[int, ...],
                                                     JetPolynomial]:
    """D_sigma phi for every |sigma| <= k, each one total derivative of a
    derivative of the degree below: D_sigma = D_i D_(sigma - 1_i), with i
    the first direction that sigma holds."""
    n = phi.n
    out = {(0,) * n: phi}
    for d in range(1, k + 1):
        for sigma in sym_basis(n, d):
            i = next(t for t, e in enumerate(sigma) if e)
            out[sigma] = total_derivative(out[_lowered(sigma, i)], i)
    return out


def _fibre_coefficients(j: int, phi: JetPolynomial,
                        a: Sequence[JetPolynomial], k: int,
                        coeffs: Dict[Var, JetPolynomial]) -> None:
    """Enter the coefficients D_sigma phi + sum_i a^i p^j_(sigma+1_i) of the
    order-<=k jet coordinates of the j-th fibre component into coeffs; the
    LieField built from them checks that the order-(k+1) variables cancel."""
    n, r = phi.n, phi.r
    for sigma, c in _derivatives(phi, k).items():
        for i in range(n):
            if a[i]:
                c = c + a[i] * JetPolynomial.variable(
                    n, r, p_var(j, _raised(sigma, i)))
        if c:
            coeffs[p_var(j, sigma)] = c


def prolong_point(a: Sequence[JetPolynomial], b: Sequence[JetPolynomial],
                  k: int) -> LieField:
    """Lift of the field sum a^i d/dx_i + sum b^j d/du_j to order-k jets.

    The fibre-coordinate coefficients combine the iterated total
    derivatives of the generating components with the horizontal
    correction; all order-(k+1) variables must cancel.
    """
    if not a or not b:
        raise ParamOutOfRange("need at least one component each")
    n, r = a[0].n, a[0].r
    if len(a) != n or len(b) != r:
        raise AmbientMismatch("component count does not match (n, r)")
    for f in list(a) + list(b):
        if f.n != n or f.r != r:
            raise AmbientMismatch("components on different spaces")
        if f.k_max > 0:
            raise ParamOutOfRange(
                "generating components must only use order-0 variables")
    coeffs: Dict[Var, JetPolynomial] = {}
    for i in range(n):
        if a[i]:
            coeffs[x_var(i)] = a[i]
    for j in range(r):
        phi = b[j]
        for i in range(n):
            if a[i]:
                phi = phi - a[i] * JetPolynomial.variable(
                    n, r, p_var(j, _raised((0,) * n, i)))
        _fibre_coefficients(j, phi, a, k, coeffs)
    return LieField(n, r, k, coeffs)


def prolong_contact(phi: JetPolynomial, k: int) -> LieField:
    """Lift of the contact field with scalar generating function phi
    (depending on variables of order <= 1, fibre rank 1) to order-k jets."""
    n, r = phi.n, phi.r
    if r != 1:
        raise ParamOutOfRange("contact lifts need fibre rank 1")
    if k < 1:
        raise ParamOutOfRange("contact lifts start at order 1")
    if phi.k_max > 1:
        raise ParamOutOfRange(
            "generating function must only use variables of order <= 1")
    a = [-phi.diff(p_var(0, _raised((0,) * n, i))) for i in range(n)]
    coeffs: Dict[Var, JetPolynomial] = {}
    for i in range(n):
        if a[i]:
            coeffs[x_var(i)] = a[i]
    _fibre_coefficients(0, phi, a, k, coeffs)
    return LieField(n, r, k, coeffs)


# ---------------------------------------------------------------------------
# seeded rational points


class RationalLCG:
    """Deterministic rational stream: glibc linear-congruential constants,
    numerators in [-9, 9], denominators in [1, 9]."""

    MULT = 1103515245
    INC = 12345
    MOD = 2 ** 31

    def __init__(self, seed: int = 0):
        self.state = seed % self.MOD

    def next_int(self) -> int:
        self.state = (self.MULT * self.state + self.INC) % self.MOD
        return self.state

    def int_range(self, lo: int, hi: int) -> int:
        return lo + self.next_int() % (hi - lo + 1)

    def fraction(self) -> Fraction:
        return Fraction(self.int_range(-9, 9), self.int_range(1, 9))


class JetPoint:
    """Total assignment of rational values to every variable up to a
    stated order."""

    __slots__ = ("n", "r", "order", "assignments")

    def __init__(self, n: int, r: int, order: int,
                 assignments: Dict[Var, Fraction]):
        self.n = n
        self.r = r
        self.order = order
        self.assignments = dict(assignments)
        for v in jet_coords(n, r, order):
            if v not in self.assignments:
                raise ParamOutOfRange("point misses a value for %r" % (v,))

    @classmethod
    def random(cls, n: int, r: int, order: int,
               rng: RationalLCG) -> "JetPoint":
        return cls(n, r, order,
                   {v: rng.fraction() for v in jet_coords(n, r, order)})

    @classmethod
    def origin(cls, n: int, r: int, order: int) -> "JetPoint":
        return cls(n, r, order,
                   {v: Fraction(0) for v in jet_coords(n, r, order)})

    def value(self, v: Var) -> Fraction:
        try:
            return self.assignments[v]
        except KeyError:
            raise ParamOutOfRange(
                "point of order %d does not cover %r" % (self.order, v))


# ---------------------------------------------------------------------------
# structure-form preservation


def _structure_forms(n: int, r: int, k: int) -> List[Dict[Var, JetPolynomial]]:
    """The contact covectors d p^j_sigma - sum_i p^j_(sigma+1_i) dx^i for
    all |sigma| < k, as sparse coefficient maps coordinate -> function."""
    forms = []
    for j in range(r):
        for d in range(k):
            for sigma in sym_basis(n, d):
                omega: Dict[Var, JetPolynomial] = {
                    p_var(j, sigma): JetPolynomial.const(n, r, 1)}
                for i in range(n):
                    omega[x_var(i)] = -JetPolynomial.variable(
                        n, r, p_var(j, _raised(sigma, i)))
                forms.append(omega)
    return forms


def _lie_derivative_form(X: LieField,
                         omega: Dict[Var, JetPolynomial],
                         coords: List[Var]) -> Dict[Var, JetPolynomial]:
    n, r = X.n, X.r
    out: Dict[Var, JetPolynomial] = {}
    for alpha in coords:
        acc = JetPolynomial.zero(n, r)
        w = omega.get(alpha)
        if w is not None:
            acc = acc + X.apply_to(w)
        for beta, wb in omega.items():
            d = X.coefficient(beta).diff(alpha)
            if d:
                acc = acc + wb * d
        if acc:
            out[alpha] = acc
    return out


def cartan_preservation_check(X: LieField, trials: int = 100,
                              seed: int = 0) -> bool:
    """True iff at each seeded rational point the Lie derivative of every
    structure covector along X stays inside their pointwise span."""
    if X.k == 0:
        return True
    coords = jet_coords(X.n, X.r, X.k)
    cpos = {v: i for i, v in enumerate(coords)}
    omegas = _structure_forms(X.n, X.r, X.k)
    derived = [_lie_derivative_form(X, w, coords) for w in omegas]
    rng = RationalLCG(seed)
    for _ in range(trials):
        pt = JetPoint.random(X.n, X.r, X.k, rng)
        base: List[Vec] = []
        for w in omegas:
            base.append({cpos[v]: f.evaluate(pt) for v, f in w.items()})
        base_rank = rank_of_rows(base)
        targets: List[Vec] = []
        for dw in derived:
            row = {cpos[v]: f.evaluate(pt) for v, f in dw.items()}
            row = {i: c for i, c in row.items() if c}
            if row:
                targets.append(row)
        if rank_of_rows(base + targets) != base_rank:
            return False
    return True


# ---------------------------------------------------------------------------
# invariant derivatives


class TresseFrame:
    """n candidate invariants together with an evaluation point at which
    their total-derivative Jacobian is invertible."""

    __slots__ = ("functions", "point", "jacobian")

    def __init__(self, functions: Sequence[JetPolynomial], point: JetPoint):
        if not functions:
            raise ParamOutOfRange("need at least one frame function")
        n = functions[0].n
        if len(functions) != n:
            raise ParamOutOfRange("need exactly n frame functions")
        self.functions = list(functions)
        self.point = point
        self.jacobian = [[total_derivative(fb, ia).evaluate(point)
                          for fb in functions] for ia in range(n)]
        if not det(self.jacobian):
            raise SingularJacobian(
                "total-derivative Jacobian is singular at the point")


def tresse(f: JetPolynomial, frame: TresseFrame) -> List[Fraction]:
    """Components of the invariant derivative of f in the frame, evaluated
    at the frame's point: the unique solution of the horizontal chain rule."""
    rhs = [total_derivative(f, i).evaluate(frame.point)
           for i in range(f.n)]
    out = solve(frame.jacobian, rhs)
    if out is None:
        raise SingularJacobian("singular system")
    return out


def tresse_symbolic(f: JetPolynomial,
                    frame_fn: JetPolynomial) -> Tuple[JetPolynomial,
                                                      JetPolynomial]:
    """One-base-variable symbolic mode: numerator and denominator of the
    invariant derivative as polynomials (valid where the denominator
    does not vanish)."""
    if f.n != 1:
        raise ParamOutOfRange("symbolic mode is limited to one base variable")
    return total_derivative(f, 0), total_derivative(frame_fn, 0)


# ---------------------------------------------------------------------------
# brute-force symbol dimensions for jet-lifted pseudogroups


def _weight(v: Var, r: int) -> Tuple[int, ...]:
    if v[0] == "x":
        return (1,) + (0,) * r
    w = [-sum(v[2])] + [0] * r
    w[1 + v[1]] = 1
    return tuple(w)


def _taylor_row(field: LieField, cpos: Dict[Var, int]) -> Dict[Tuple, object]:
    """The Taylor data of a lift, (degree, exponents, coordinate) ->
    coefficient, over every term of every coefficient of the field."""
    row = {}
    for v, poly in field.coeffs.items():
        vp = cpos[v]
        for mono, c in poly.terms.items():
            exp = [0] * len(cpos)
            for var, e in mono:
                exp[cpos[var]] = e
            row[(sum(exp), tuple(exp), vp)] = c
    return row


def _lifted_rows(kind: str, n: int, r: int, k: int, d: int) -> list:
    """(weight, Taylor row) of the lift of every degree-d monomial
    generator, for each variable the generator can move.  The weight, the
    monomial's minus the moved variable's, is a scaling weight that the
    lift preserves."""
    cpos = {v: i for i, v in enumerate(jet_coords(n, r, k))}
    base = [x_var(i) for i in range(n)] + [u_var(j, n) for j in range(r)]
    variables = base if kind == "point" else \
        base + [p_var(0, _raised((0,) * n, i)) for i in range(n)]
    weights = [_weight(v, r) for v in variables]
    zero = JetPolynomial.zero(n, r)
    out = []
    for exps in sym_basis(len(variables), d):
        mono = JetPolynomial._of(
            n, r, {_canonical(dict(zip(variables, exps))): 1})
        weight = [sum(e * w[c] for e, w in zip(exps, weights))
                  for c in range(r + 1)]
        if kind == "point":
            lifts = []
            for t, v in enumerate(base):
                comps = [mono if s == t else zero for s in range(n + r)]
                lifts.append((v, prolong_point(comps[:n], comps[n:], k)))
        else:
            lifts = [(base[n], prolong_contact(mono, k))]
        for v, field in lifts:
            out.append((tuple(a - b for a, b in zip(weight, _weight(v, r))),
                        _taylor_row(field, cpos)))
    return out


@lru_cache(maxsize=1)
def _lift_store(kind: str, n: int, r: int, k: int) -> Dict[int, list]:
    """Degree -> (weight, Taylor row) of the lifts of one family's monomial
    generators, filled on demand.  One family is kept at a time, so the
    cutoffs and degrees l of one oracle run share their lifts, and the
    next family frees them."""
    return {}


def _order_l_rows(kind: str, n: int, r: int, k: int, l: int,
                  cutoff: int) -> List[Dict[Tuple, object]]:
    """Rows spanning the order-l symbol of the lifts of the generators of
    degree <= cutoff, keyed (l, exponents, coordinate).

    The Taylor rows of degree <= l are grouped by weight (the groups have
    disjoint column support) and row reduced without back-substitution.
    Columns sort by degree first, so the rows whose pivot has degree l are
    exactly the echelon rows with no part below degree l, and they span
    the lifts vanishing to order l; their number is the dimension."""
    store = _lift_store(kind, n, r, k)
    groups: Dict[Tuple, List[Dict]] = {}
    for d in range(cutoff + 1):
        if d not in store:
            store[d] = _lifted_rows(kind, n, r, k, d)
        for weight, row in store[d]:
            part = {c: v for c, v in row.items() if c[0] <= l}
            if part:
                groups.setdefault(weight, []).append(part)
    return [row for rows in groups.values()
            for pivot, row in echelon(rows, canonical=False).items()
            if pivot[0] == l]


def _saturated(kind: str, n: int, r: int, k: int, l: int,
               cutoff: Optional[int], saturate: bool, measure_for):
    """measure(order-l rows) at the degree cutoff, k + l + 1 unless given,
    where measure is measure_for(number of jet coordinates), which checks
    its cap before any lift.  With saturate, the rows are recomputed at
    cutoff + 1 and must measure the same."""
    if n < 1 or r < 1 or k < 0 or l < 1:
        raise ParamOutOfRange("need n, r, l >= 1 and k >= 0")
    if kind not in ("point", "contact"):
        raise ParamOutOfRange("oracle kind must be point or contact")
    if kind == "contact" and r != 1:
        raise ParamOutOfRange("contact lifts need fibre rank 1")
    measure = measure_for(len(jet_coords(n, r, k)))
    if cutoff is None:
        cutoff = k + l + 1
    elif cutoff < l:
        # Generators of degree below l add nothing to the order-l symbol:
        # both passes could read 0, and saturation would pass on a wrong 0.
        raise ParamOutOfRange("degree cutoff %d is below l = %d" % (cutoff, l))
    rows = _order_l_rows(kind, n, r, k, l, cutoff)
    first = measure(rows)
    if saturate:
        more = _order_l_rows(kind, n, r, k, l, cutoff + 1)
        if measure(more) != first:
            raise CancellationFailure(
                "degree cutoff %d is not saturated (%d -> %d)"
                % (cutoff, len(rows), len(more)))
    return first


def symbol_oracle(kind: str, n: int, r: int, k: int, l: int,
                  cutoff: Optional[int] = None, saturate: bool = True,
                  cap: Optional[int] = None) -> int:
    """Dimension of the order-l symbol of jet-lifted transformations,
    computed by brute force: enumerate monomial generating data, lift each
    to the order-k jet space, and take the rank of the degree-l Taylor
    parts of lifts vanishing to order l."""

    def count(width: int):
        columns = width * sum(math.comb(width + d - 1, d) for d in range(l + 1))
        if columns > (cap if cap is not None else ORACLE_COLUMN_CAP):
            raise CapExceeded("oracle matrix would have %d columns" % columns)
        return len

    return _saturated(kind, n, r, k, l, cutoff, saturate, count)


def lie_symbol_subspace(kind: str, n: int, r: int, k: int, l: int,
                        cutoff: Optional[int] = None, saturate: bool = True,
                        cap: Optional[int] = None) -> Subspace:
    """The order-l symbol of jet-lifted transformations materialized inside
    the symmetric tensors over the full jet-space coordinates; an ambient
    above materialization_cap(cap) raises CapExceeded before any lift."""

    def span(width: int):
        shape = TensorShape(width, l, 0, width)
        check_cap(shape.dim, cap)
        return lambda rows: Subspace.from_rows(shape, [
            {shape.index(shape.sym_pos(exp), 0, vp): c
             for (_, exp, vp), c in row.items()} for row in rows])

    return _saturated(kind, n, r, k, l, cutoff, saturate, span)
