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

Every lift, the public ``prolong_point`` and ``prolong_contact`` and the
oracle's generators alike, runs through one kernel on polynomials stored
as {dense exponent vector: coefficient}.  A family's layout (``_Layout``)
puts ``jet_coords(n, r, k)`` first and the order-(k+1) coordinates after
them, so an exponent vector cut to the first ``width`` entries is the
oracle's Taylor key.  D_i runs from a table of raised positions, raises
when it would leave the layout, and also serves ``total_derivative``.
Both lifts are the one prolongation formula of ``_lift`` (Olver, GTM 107,
Thm 2.36): a^i at x_i and D_sigma Q^j + sum_i a^i p^j_(sigma+1_i) at
p^j_sigma, for the characteristics Q^j = b^j - sum_i a^i p^j_(1_i) of a
point field and Q = phi, a^i = -d phi/d p_(1_i) of a contact field.
``_lift`` is the one place where a surviving order-(k+1) exponent raises
``CancellationFailure``.  The oracle passes an order l, and the kernel
then forms only the terms of degree <= l of the lift (the sum of an
exponent vector is its degree); the public lifts pass none.  The oracle
lifts no data of degree above ``_reach(k, l)``, which has no such term.
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


def _accumulate(out: Dict, terms) -> None:
    """out[m] += c for every (m, c) of terms, dropping zero sums and keeping
    integral sums int; m is a monomial or a kernel exponent vector."""
    for m, c in terms:
        w = out.get(m, 0) + c
        if not w:
            del out[m]
        elif type(w) is int:
            out[m] = w
        else:
            out[m] = w.numerator if w.denominator == 1 else w


def _check_multi_index(sigma: Sequence[int], n: int) -> None:
    if len(sigma) != n or any(s < 0 for s in sigma):
        raise ParamOutOfRange("multi-index %r is not of length %d with "
                              "entries >= 0" % (tuple(sigma), n))


def _check_var(v: Var, n: int, r: int) -> None:
    if v[0] == "x":
        if not 0 <= v[1] < n:
            raise ParamOutOfRange("base index out of range")
    elif v[0] != "p" or not 0 <= v[1] < r:
        raise ParamOutOfRange("jet variable out of range")
    else:
        _check_multi_index(v[2], n)


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
                    _check_var(v, n, r)
                    if e < 0:
                        raise ParamOutOfRange("negative exponent of %r" % (v,))
                    exps[v] = exps.get(v, 0) + e
                _accumulate(self.terms, ((_canonical(exps), c),))

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
        _check_var(v, n, r)
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
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return JetPolynomial._of(self.n, self.r, out)

    def __neg__(self):
        return JetPolynomial._of(self.n, self.r,
                                 {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _exact(other)
            if not q:
                return JetPolynomial.zero(self.n, self.r)
            return JetPolynomial._of(self.n, self.r, {
                m: _exact(c * q) for m, c in self.terms.items()})
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        self._check(other)
        out: Dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                exps = dict(d1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                _accumulate(out, ((_canonical(exps), c1 * c2),))
        return JetPolynomial._of(self.n, self.r, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ParamOutOfRange("negative power of a jet polynomial")
        out = JetPolynomial.const(self.n, self.r, 1)
        for _ in range(e):
            out = out * self
        return out

    def diff(self, v: Var) -> "JetPolynomial":
        out: Dict[Monomial, object] = {}
        for m, c in self.terms.items():
            for t, (w, e) in enumerate(m):
                if w == v:
                    low = ((v, e - 1),) if e > 1 else ()
                    _accumulate(out, ((m[:t] + low + m[t + 1:], c * e),))
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
    """Derivative along the i-th base direction through all jet variables,
    taken by the lift kernel's D_i on the layout of f's highest order."""
    if not 0 <= i < f.n:
        raise ParamOutOfRange("base direction out of range")
    lay = _layout(f.n, f.r, f.k_max)
    return lay.jet(_total_derivative(lay, lay.dense(f), i))


def total_derivative_multi(f: JetPolynomial,
                           sigma: Sequence[int]) -> JetPolynomial:
    _check_multi_index(sigma, f.n)
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


# ---------------------------------------------------------------------------
# the lift kernel: polynomials as {dense exponent vector: coefficient}


class _Layout:
    """Coordinates of one jet space (n, r, k) as positions in a dense
    exponent vector: ``jet_coords(n, r, k)`` (the x_i at positions 0..n-1),
    then the order-(k+1) coordinates of each fibre.  The first ``width``
    positions are in canonical variable order, so an exponent vector cut
    to them is a Taylor key.  ``up[i][t]`` is the position of D_i of the
    jet coordinate at t, or None when that leaves the layout; ``sigmas``
    are the multi-indices of order <= k, by degree."""

    __slots__ = ("n", "r", "k", "coords", "pos", "width", "up", "sigmas")

    def __init__(self, n: int, r: int, k: int):
        self.n, self.r, self.k = n, r, k
        self.sigmas = [s for d in range(k + 1) for s in sym_basis(n, d)]
        coords = jet_coords(n, r, k)
        self.width = len(coords)
        for j in range(r):
            coords += [p_var(j, s) for s in sorted(sym_basis(n, k + 1))]
        self.coords = coords
        self.pos = {v: t for t, v in enumerate(coords)}
        self.up = [[None if v[0] == "x" else
                    self.pos.get(p_var(v[1], _raised(v[2], i)))
                    for v in coords] for i in range(n)]

    def p(self, j: int, sigma: Tuple[int, ...]) -> int:
        return self.pos[("p", j, sigma)]

    def dense(self, f: JetPolynomial) -> Dict[Tuple[int, ...], object]:
        """f as a kernel polynomial; its variables must be in the layout."""
        out = {}
        for m, c in f.terms.items():
            exp = [0] * len(self.coords)
            for v, e in m:
                exp[self.pos[v]] = e
            out[tuple(exp)] = c
        return out

    def jet(self, f: Dict[Tuple[int, ...], object]) -> JetPolynomial:
        """A kernel polynomial (whole or cut to width) as a JetPolynomial."""
        coords = self.coords
        return JetPolynomial(self.n, self.r, {
            tuple((coords[t], e) for t, e in enumerate(m) if e): c
            for m, c in f.items()})

    def field(self, coeffs: Dict[int, Dict]) -> LieField:
        return LieField(self.n, self.r, self.k, {
            self.coords[q]: self.jet(poly) for q, poly in coeffs.items()})


@lru_cache(maxsize=16)
def _layout(n: int, r: int, k: int) -> _Layout:
    return _Layout(n, r, k)


def _below(f: Dict, top: Optional[int]) -> Dict:
    """A new dict of the terms of f of degree at most top (all of them when
    top is None).  A term's degree is the sum of its exponent vector."""
    if top is None:
        return dict(f)
    return {m: c for m, c in f.items() if sum(m) <= top}


def _total_derivative(lay: _Layout, f: Dict, i: int,
                      top: Optional[int] = None) -> Dict:
    """D_i f: d/dx_i plus p^j_(sigma+1_i) d/dp^j_sigma over every jet
    coordinate; a term whose derivative leaves the layout raises.  With
    top, only the terms of degree <= top are formed: d/dx_i lowers a
    term's degree by one and the jet part keeps it.  Then f must hold no
    term of degree above top + 1, as the entries of _derivative_table do."""
    up = lay.up[i]
    n = lay.n

    def terms():
        for m, c in f.items():
            excess = 0 if top is None else sum(m) - top
            if m[i]:
                yield m[:i] + (m[i] - 1,) + m[i + 1:], c * m[i]
            if excess == 1:
                continue
            for t in range(n, len(m)):
                e = m[t]
                if e:
                    s = up[t]
                    if s is None:
                        raise CancellationFailure(
                            "D_%d of %r leaves the order-%d jet space"
                            % (i, lay.coords[t], lay.k + 1))
                    exp = list(m)
                    exp[t] = e - 1
                    exp[s] += 1
                    yield tuple(exp), c * e

    out: Dict[Tuple[int, ...], object] = {}
    _accumulate(out, terms())
    return out


def _reach(k: int, l: int) -> int:
    """The highest degree of generating data whose order-k lift has a
    Taylor term of degree <= l.  Each coefficient of the lift is a^i or
    D_sigma Q^j + sum_i a^i p^j_(sigma+1_i), |sigma| <= k (``_lift``); data
    of degree d gives a^i of degree >= d - 1 (d - 1 only for contact lifts,
    k >= 1) and Q^j of degree >= d, and D_sigma lowers a degree by at most
    |sigma|."""
    return l + k


def _derivative_table(lay: _Layout, f: Dict,
                      l: Optional[int] = None) -> Dict[Tuple[int, ...], Dict]:
    """D_sigma f for every |sigma| <= k, each one total derivative of a
    derivative of the degree below: D_sigma = D_i D_(sigma - 1_i), with i
    the first direction that sigma holds.  With l, D_sigma f keeps its
    terms of degree <= _reach(k, l) - |sigma|, which D_i forms exactly
    from the entry below, since it lowers a degree by at most one."""
    top = None if l is None else _reach(lay.k, l)
    out = {lay.sigmas[0]: _below(f, top)}
    for sigma in lay.sigmas[1:]:
        i = next(t for t, e in enumerate(sigma) if e)
        out[sigma] = _total_derivative(
            lay, out[_lowered(sigma, i)], i,
            None if top is None else top - sum(sigma))
    return out


def _add_times(out: Dict, f: Dict, q: int, s) -> None:
    """out += s * f * (the coordinate at position q)."""
    _accumulate(out, ((m[:q] + (m[q] + 1,) + m[q + 1:], s * c)
                      for m, c in f.items()))


def _lift(lay: _Layout, a: Sequence[Dict], Q: Sequence[Dict],
          l: Optional[int] = None) -> Dict[int, Dict]:
    """The prolongation formula (Olver, GTM 107, Thm 2.36): the lifted
    field's nonzero coefficients, position -> polynomial with exponents cut
    to the Taylor width, a^i at x_i and D_sigma Q^j + sum_i a^i
    p^j_(sigma+1_i) at p^j_sigma, for the characteristics Q^j.  This is
    the one place where the order-(k+1) coordinates must have cancelled.
    With l, only the terms of degree <= l are formed: D_sigma Q^j comes
    from a table cut to degree l, and a^i enters with its terms of degree
    <= l at x_i and <= l - 1 in the products, which raise the degree by
    one."""
    low = [_below(ai, None if l is None else l - 1) for ai in a]
    coeffs = {i: c for i, c in enumerate(_below(ai, l) for ai in a) if c}
    for j, qj in enumerate(Q):
        for sigma, c in _derivative_table(lay, qj, l).items():
            c = _below(c, l)
            q = lay.p(j, sigma)
            for i, ai in enumerate(low):
                if ai:
                    _add_times(c, ai, lay.up[i][q], 1)
            if c:
                coeffs[q] = c
    w = lay.width
    out = {}
    for q, poly in coeffs.items():
        for m in poly:
            if any(m[w:]):
                t = next(t for t in range(w, len(m)) if m[t])
                raise CancellationFailure(
                    "order-%d coordinate %r survives in the coefficient of %r"
                    % (lay.k + 1, lay.coords[t], lay.coords[q]))
        out[q] = {m[:w]: c for m, c in poly.items()}
    return out


def _point_lift(lay: _Layout, a: Sequence[Dict], b: Sequence[Dict],
                l: Optional[int] = None) -> Dict[int, Dict]:
    """Kernel lift of sum a^i d/dx_i + sum b^j d/du_j (order-0 components)
    through its characteristics Q^j = b^j - sum_i a^i p^j_(1_i).  The
    formula's sum_i a^i p^j_(sigma+1_i) cancels a term of D_sigma Q^j, and
    the cancellation check sees it cancel."""
    Q = []
    for j, bj in enumerate(b):
        qj = dict(bj)
        for i, ai in enumerate(a):
            _add_times(qj, ai, lay.up[i][lay.p(j, (0,) * lay.n)], -1)
        Q.append(qj)
    return _lift(lay, a, Q, l)


def _contact_lift(lay: _Layout, phi: Dict,
                  l: Optional[int] = None) -> Dict[int, Dict]:
    """Kernel lift of the contact field with generating function phi (order
    <= 1, one fibre), its own characteristic: a^i = -d phi/d p_(1_i)."""
    a = []
    for i in range(lay.n):
        q = lay.up[i][lay.p(0, (0,) * lay.n)]
        ai: Dict[Tuple[int, ...], object] = {}
        _accumulate(ai, ((m[:q] + (m[q] - 1,) + m[q + 1:], -c * m[q])
                         for m, c in phi.items() if m[q]))
        a.append(ai)
    return _lift(lay, a, [phi], l)


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
    if k < 0:
        raise ParamOutOfRange("point lifts need an order k >= 0")
    for f in list(a) + list(b):
        if f.n != n or f.r != r:
            raise AmbientMismatch("components on different spaces")
        if f.k_max > 0:
            raise ParamOutOfRange(
                "generating components must only use order-0 variables")
    lay = _layout(n, r, k)
    return lay.field(_point_lift(lay, [lay.dense(f) for f in a],
                                 [lay.dense(f) for f in b]))


def prolong_contact(phi: JetPolynomial, k: int) -> LieField:
    """Lift of the contact field with scalar generating function phi
    (depending on variables of order <= 1, fibre rank 1) to order-k jets."""
    if phi.r != 1:
        raise ParamOutOfRange("contact lifts need fibre rank 1")
    if k < 1:
        raise ParamOutOfRange("contact lifts start at order 1")
    if phi.k_max > 1:
        raise ParamOutOfRange(
            "generating function must only use variables of order <= 1")
    lay = _layout(phi.n, 1, k)
    return lay.field(_contact_lift(lay, lay.dense(phi)))


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


def _lifted_rows(kind: str, lay: _Layout, d: int,
                 l: Optional[int] = None) -> list:
    """(weight, Taylor row) of the kernel lift of every degree-d monomial
    generator, for each variable the generator can move.  The weight, the
    monomial's minus the moved variable's, is a scaling weight that the
    lift preserves.  With l, the rows hold only their entries of Taylor
    degree <= l."""
    n, r = lay.n, lay.r
    base = [x_var(i) for i in range(n)] + [u_var(j, n) for j in range(r)]
    variables = base if kind == "point" else \
        base + [p_var(0, _raised((0,) * n, i)) for i in range(n)]
    where = [lay.pos[v] for v in variables]
    weights = [_weight(v, r) for v in variables]
    out = []
    for exps in sym_basis(len(variables), d):
        exp = [0] * len(lay.coords)
        for q, e in zip(where, exps):
            exp[q] = e
        mono = {tuple(exp): 1}
        weight = [sum(e * w[c] for e, w in zip(exps, weights))
                  for c in range(r + 1)]
        if kind == "point":
            lifts = []
            for t, v in enumerate(base):
                comps = [mono if s == t else {} for s in range(n + r)]
                lifts.append((v, _point_lift(lay, comps[:n], comps[n:], l)))
        else:
            lifts = [(base[n], _contact_lift(lay, mono, l))]
        for v, coeffs in lifts:
            out.append((tuple(a - b for a, b in zip(weight, _weight(v, r))),
                        {(sum(m), m, q): c for q, poly in coeffs.items()
                         for m, c in poly.items()}))
    return out


@lru_cache(maxsize=1)
def _lift_store(kind: str, n: int, r: int, k: int) -> Tuple[_Layout,
                                                           Dict[int, list]]:
    """The family's layout, and degree -> (l, rows): the (weight, Taylor
    row) of the lifts of its monomial generators, truncated at Taylor
    degree l, the highest order asked of that degree so far.  A higher
    order lifts the degree again; a lower one reads the stored rows.  One
    family is kept at a time, so the cutoffs and orders of one oracle run
    share their lifts, and the next family frees them."""
    return _layout(n, r, k), {}


def _order_l_rows(kind: str, n: int, r: int, k: int, l: int,
                  cutoff: int) -> List[Dict[Tuple, object]]:
    """Rows spanning the order-l symbol of the lifts of the generators of
    degree <= cutoff, keyed (l, exponents, coordinate).

    The Taylor rows of degree <= l are grouped by weight (the groups have
    disjoint column support) and row reduced without back-substitution.
    Columns sort by degree first, so the rows whose pivot has degree l are
    exactly the echelon rows with no part below degree l, and they span
    the lifts vanishing to order l; their number is the dimension."""
    lay, store = _lift_store(kind, n, r, k)
    groups: Dict[Tuple, List[Dict]] = {}
    for d in range(cutoff + 1):
        if d not in store or store[d][0] < l:
            store[d] = l, _lifted_rows(kind, lay, d, l)
        for weight, row in store[d][1]:
            part = {c: v for c, v in row.items() if c[0] <= l}
            if part:
                groups.setdefault(weight, []).append(part)
    return [row for rows in groups.values()
            for pivot, row in echelon(rows, canonical=False).items()
            if pivot[0] == l]


def _checked_width(kind: str, n: int, r: int, k: int, l: int) -> int:
    """The number of order-k jet coordinates of a family the oracle lifts,
    after the checks of the family and the order."""
    if n < 1 or r < 1 or k < 0 or l < 1:
        raise ParamOutOfRange("need n, r, l >= 1 and k >= 0")
    if kind not in ("point", "contact"):
        raise ParamOutOfRange("oracle kind must be point or contact")
    if kind == "contact" and r != 1:
        raise ParamOutOfRange("contact lifts need fibre rank 1")
    return len(jet_coords(n, r, k))


def _oracle_rows(kind: str, n: int, r: int, k: int, l: int,
                 cutoff: Optional[int]) -> List[Dict[Tuple, object]]:
    """The order-l rows of the generators of degree <= min(cutoff,
    _reach(k, l)); no generator above that reaches degree l.  A cutoff
    below the reach is cross-checked: the rows are recomputed at cutoff + 1
    and must keep their number, which for echelon rows of nested spans
    means keeping their span."""
    reach = _reach(k, l)
    if cutoff is None:
        cutoff = reach
    elif cutoff < l:
        # Generators of degree below l add nothing to the order-l symbol:
        # both passes could read 0, and saturation would pass on a wrong 0.
        raise ParamOutOfRange("degree cutoff %d is below l = %d" % (cutoff, l))
    rows = _order_l_rows(kind, n, r, k, l, min(cutoff, reach))
    if cutoff < reach:
        more = len(_order_l_rows(kind, n, r, k, l, cutoff + 1))
        if more != len(rows):
            raise CancellationFailure(
                "degree cutoff %d is not saturated (%d -> %d)"
                % (cutoff, len(rows), more))
    return rows


def check_symbol_oracle(kind: str, n: int, r: int, k: int, l: int,
                        cap: Optional[int] = None) -> None:
    """Raise what ``symbol_oracle(kind, n, r, k, l, cap=cap)`` raises before
    its first lift (a bad family or order, or too many columns), lifting
    nothing."""
    width = _checked_width(kind, n, r, k, l)
    columns = width * sum(math.comb(width + d - 1, d) for d in range(l + 1))
    if columns > (cap if cap is not None else ORACLE_COLUMN_CAP):
        raise CapExceeded("oracle matrix would have %d columns" % columns)


def symbol_oracle(kind: str, n: int, r: int, k: int, l: int,
                  cutoff: Optional[int] = None,
                  cap: Optional[int] = None) -> int:
    """Dimension of the order-l symbol of jet-lifted transformations,
    computed by brute force: enumerate monomial generating data, lift each
    to the order-k jet space, and take the rank of the degree-l Taylor
    parts of lifts vanishing to order l."""
    check_symbol_oracle(kind, n, r, k, l, cap)
    return len(_oracle_rows(kind, n, r, k, l, cutoff))


def lie_symbol_subspace(kind: str, n: int, r: int, k: int, l: int,
                        cutoff: Optional[int] = None,
                        cap: Optional[int] = None) -> Subspace:
    """The order-l symbol of jet-lifted transformations materialized inside
    the symmetric tensors over the full jet-space coordinates; an ambient
    above materialization_cap(cap) raises CapExceeded before any lift."""
    width = _checked_width(kind, n, r, k, l)
    shape = TensorShape(width, l, 0, width)
    check_cap(shape.dim, cap)
    return Subspace.from_rows(shape, [
        {shape.index(shape.sym_pos(exp), 0, vp): c
         for (_, exp, vp), c in row.items()}
        for row in _oracle_rows(kind, n, r, k, l, cutoff)])
