"""Reference jet lifts built from ``JetPolynomial`` arithmetic.

``spencer.jetcalc`` lifts, and takes total derivatives, through one kernel
over dense exponent vectors.  This reference uses the kernel's formula,
the prolongation formula through characteristics
phi_sigma = D_sigma(phi - sum_i a^i p_(1_i)) + sum_i a^i p_(sigma + 1_i),
and stays independent of it in its arithmetic: iterated total derivatives
written with ``JetPolynomial`` partial derivatives and general polynomial
products.  It reads the Taylor rows off the ``LieField`` it builds, so
tests can hold the kernel to it.
"""

from spencer.exactla import sym_basis
from spencer.jetcalc import (JetPolynomial, LieField, jet_coords, p_var,
                             u_var, x_var)


def _raised(sigma, i):
    return sigma[:i] + (sigma[i] + 1,) + sigma[i + 1:]


def _lowered(sigma, i):
    return sigma[:i] + (sigma[i] - 1,) + sigma[i + 1:]


def total_derivative(f, i):
    """d f/d x_i + sum over the jet variables v of f of p_(v + 1_i) d f/d v."""
    out = f.diff(x_var(i))
    for v in {v for m in f.terms for v, _ in m if v[0] == "p"}:
        out = out + f.diff(v) * JetPolynomial.variable(
            f.n, f.r, p_var(v[1], _raised(v[2], i)))
    return out


def _derivatives(phi, k):
    """D_sigma phi for every |sigma| <= k."""
    n = phi.n
    out = {(0,) * n: phi}
    for d in range(1, k + 1):
        for sigma in sym_basis(n, d):
            i = next(t for t, e in enumerate(sigma) if e)
            out[sigma] = total_derivative(out[_lowered(sigma, i)], i)
    return out


def _fibre_coefficients(j, phi, a, k, coeffs):
    n, r = phi.n, phi.r
    for sigma, c in _derivatives(phi, k).items():
        for i in range(n):
            if a[i]:
                c = c + a[i] * JetPolynomial.variable(
                    n, r, p_var(j, _raised(sigma, i)))
        if c:
            coeffs[p_var(j, sigma)] = c


def prolong_point(a, b, k):
    n, r = a[0].n, a[0].r
    coeffs = {x_var(i): a[i] for i in range(n) if a[i]}
    for j in range(r):
        phi = b[j]
        for i in range(n):
            if a[i]:
                phi = phi - a[i] * JetPolynomial.variable(
                    n, r, p_var(j, _raised((0,) * n, i)))
        _fibre_coefficients(j, phi, a, k, coeffs)
    return LieField(n, r, k, coeffs)


def prolong_contact(phi, k):
    n, r = phi.n, phi.r
    a = [-phi.diff(p_var(0, _raised((0,) * n, i))) for i in range(n)]
    coeffs = {x_var(i): a[i] for i in range(n) if a[i]}
    _fibre_coefficients(0, phi, a, k, coeffs)
    return LieField(n, r, k, coeffs)


def taylor_row(field, cpos):
    """(degree, exponents, coordinate) -> coefficient over every term of
    every coefficient of the field."""
    row = {}
    for v, poly in field.coeffs.items():
        vp = cpos[v]
        for mono, c in poly.terms.items():
            exp = [0] * len(cpos)
            for var, e in mono:
                exp[cpos[var]] = e
            row[(sum(exp), tuple(exp), vp)] = c
    return row


def lifted_rows(kind, n, r, k, d):
    """Taylor rows of the lifts of the degree-d monomial generators, in the
    order of ``jetcalc._lifted_rows`` (weights left out)."""
    cpos = {v: i for i, v in enumerate(jet_coords(n, r, k))}
    base = [x_var(i) for i in range(n)] + [u_var(j, n) for j in range(r)]
    variables = base if kind == "point" else \
        base + [p_var(0, _raised((0,) * n, i)) for i in range(n)]
    zero = JetPolynomial.zero(n, r)
    out = []
    for exps in sym_basis(len(variables), d):
        mono = JetPolynomial(n, r, {tuple(zip(variables, exps)): 1})
        if kind == "point":
            for t in range(n + r):
                comps = [mono if s == t else zero for s in range(n + r)]
                out.append(taylor_row(prolong_point(comps[:n], comps[n:], k),
                                      cpos))
        else:
            out.append(taylor_row(prolong_contact(mono, k), cpos))
    return out
