"""Jet-space calculus: total derivatives, lifted fields, moving-frame
derivatives, and the filtered dimension oracle."""

import functools
import json
import operator
from fractions import Fraction

import pytest

import reference_lift
from spencer import jetcalc
from spencer.cli import main
from spencer.errors import (AmbientMismatch, CancellationFailure,
                            ParamOutOfRange, SingularJacobian, CapExceeded)
from spencer.exactla import TensorShape
from spencer.jetcalc import (
    JetPolynomial, parse_jet_polynomial, parse_variable,
    x_var, p_var, u_var, jet_coords,
    total_derivative, total_derivative_multi, horizontal_diff,
    LieField, prolong_point, prolong_contact,
    RationalLCG, JetPoint, cartan_preservation_check,
    TresseFrame, tresse, tresse_symbolic,
    symbol_oracle, lie_symbol_subspace,
)
from spencer.catalog import point_lie_total, contact_lie_dim, point_lie_embed


def poly(text, n, r):
    return parse_jet_polynomial(text, n, r)


def random_poly(rng, n, r, order, degree=2, terms=4):
    coords = jet_coords(n, r, order)
    out = JetPolynomial.zero(n, r)
    for _ in range(terms):
        term = JetPolynomial.const(n, r, rng.int_range(-4, 4))
        for _ in range(rng.int_range(0, degree)):
            v = coords[rng.int_range(0, len(coords) - 1)]
            term = term * JetPolynomial.variable(n, r, v)
        out = out + term
    return out


# ---------------------------------------------------------------- polynomials

def test_parse_builds_expected_polynomial():
    x = JetPolynomial.variable(1, 1, x_var(0))
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    p = JetPolynomial.variable(1, 1, p_var(0, (1,)))
    assert poly("x1^2 + 3*u", 1, 1) == x * x + JetPolynomial.const(1, 1, 3) * u
    assert poly("p[1,2]", 1, 1) == JetPolynomial.variable(1, 1, p_var(0, (2,)))
    assert poly("p[1,(1,)]", 1, 1) == p
    assert poly("u - u", 1, 1) == JetPolynomial.zero(1, 1)


def test_parse_variable_indexing_is_one_based():
    assert parse_variable("x2", 3, 1) == x_var(1)
    assert parse_variable("u2", 1, 2) == u_var(1, 1)
    assert parse_variable("p[2,(0,1)]", 2, 2) == p_var(1, (0, 1))


def test_parse_rejects_garbage():
    for bad in ("x0", "p[1]", "q", "x1 +", "u3"):
        with pytest.raises((ParamOutOfRange, ValueError, KeyError)):
            parse_jet_polynomial(bad, 1, 2)


def test_polynomial_arithmetic_matches_evaluation():
    rng = RationalLCG(5)
    for _ in range(10):
        f = random_poly(rng, 2, 1, 1)
        g = random_poly(rng, 2, 1, 1)
        pt = JetPoint.random(2, 1, 1, rng)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f - g).evaluate(pt) == f.evaluate(pt) - g.evaluate(pt)


def test_partial_derivative_basics():
    f = poly("x1^2*u + p[1,1]", 1, 1)
    x = JetPolynomial.variable(1, 1, x_var(0))
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    assert f.diff(x_var(0)) == JetPolynomial.const(1, 1, 2) * x * u
    assert f.diff(u_var(0, 1)) == x * x
    assert f.diff(p_var(0, (1,))) == JetPolynomial.const(1, 1, 1)


def test_constructor_canonicalizes_monomial_keys():
    x = JetPolynomial.variable(1, 1, x_var(0))
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    swapped = JetPolynomial(1, 1, {((u_var(0, 1), 1), (x_var(0), 1)): 1})
    assert swapped == x * u
    assert len((swapped + x * u).terms) == 1
    merged = JetPolynomial(1, 1, {((u_var(0, 1), 1), (x_var(0), 1)): 2,
                                  ((x_var(0), 1), (u_var(0, 1), 1)): -2,
                                  ((x_var(0), 1), (x_var(0), 1)): 1})
    assert merged == x * x


def test_integer_data_stays_integer():
    def int_coefficients(f):
        return all(type(c) is int for c in f.terms.values())

    rng = RationalLCG(41)
    f = random_poly(rng, 2, 1, 1)
    g = random_poly(rng, 2, 1, 1)
    assert int_coefficients(f) and int_coefficients(g)
    for h in (f + g, f - g, f * g, f * 3, f.diff(x_var(0)),
              f.diff(p_var(0, (1, 0))), total_derivative(f, 1)):
        assert int_coefficients(h)
    x = JetPolynomial.variable(1, 1, x_var(0))
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    point = prolong_point([x * u], [u * u - x], 3)
    contact = prolong_contact(poly("x1*p[1,1]^2 - u^2", 1, 1), 3)
    for field in (point, contact):
        assert all(int_coefficients(c) for c in field.coeffs.values())

    two = JetPolynomial.const(1, 1, Fraction(4, 2))
    assert two.terms == {(): 2} and type(two.terms[()]) is int
    half = poly("3/2*x1", 1, 1)
    assert list(half.terms.values()) == [Fraction(3, 2)]
    assert type((half + half).terms[((x_var(0), 1),)]) is int
    by_fraction = JetPolynomial(1, 1, {((x_var(0), 2),): Fraction(6, 3),
                                       (): Fraction(1, 2)})
    by_int = JetPolynomial.const(1, 1, 2) * x * x \
        + JetPolynomial.const(1, 1, Fraction(1, 2))
    assert by_fraction == by_int

    pt = JetPoint(1, 1, 1, {x_var(0): 2, u_var(0, 1): 3, p_var(0, (1,)): 1})
    assert type((x * u).evaluate(pt)) is Fraction
    assert type(JetPolynomial.zero(1, 1).evaluate(pt)) is Fraction
    frame = TresseFrame([poly("x1 + u", 1, 1)], JetPoint.origin(1, 1, 1))
    got = tresse(poly("2*x1", 1, 1), frame)
    assert got == [2] and all(type(v) is Fraction for v in got)


def test_negative_powers_and_foreign_operands_are_refused():
    x = JetPolynomial.variable(1, 1, x_var(0))
    assert x ** 0 == JetPolynomial.const(1, 1, 1)
    with pytest.raises(ParamOutOfRange):
        x ** -1
    for op, other in ((operator.add, 1), (operator.add, 1.5),
                      (operator.sub, 1), (operator.mul, 1.5),
                      (operator.pow, 1.5)):
        assert getattr(x, "__%s__" % op.__name__)(other) is NotImplemented
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    assert 3 * x == x * 3 == x + x + x
    with pytest.raises(AmbientMismatch):
        x + JetPolynomial.variable(2, 1, x_var(0))


def test_jet_multi_indices_are_validated():
    for n, v in ((1, ("p", 0, (-1,))), (2, ("p", 0, (1,))),
                 (2, ("p", 0, (0, 0, 1))), (1, ("p", 1, (0,))),
                 (1, ("q", 0, (0,)))):
        with pytest.raises(ParamOutOfRange):
            JetPolynomial.variable(n, 1, v)
        with pytest.raises(ParamOutOfRange):
            JetPolynomial(n, 1, {((v, 1),): 1})
    with pytest.raises(ParamOutOfRange):
        JetPolynomial(1, 1, {((x_var(0), -1),): 1})
    f = poly("x1*p[1,(1,0)]", 2, 1)
    for sigma in ((-1, 0), (1,), (1, 0, 0), ()):
        with pytest.raises(ParamOutOfRange):
            total_derivative_multi(f, sigma)
    assert total_derivative_multi(f, (0, 0)) == f


# ---------------------------------------------------------------- total derivatives

def test_total_derivative_on_coordinates():
    n, r = 2, 2
    for i in range(n):
        for j in range(n):
            xj = JetPolynomial.variable(n, r, x_var(j))
            expect = JetPolynomial.const(n, r, 1 if i == j else 0)
            assert total_derivative(xj, i) == expect
    sigma = (1, 0)
    f = JetPolynomial.variable(n, r, p_var(0, sigma))
    assert total_derivative(f, 1) == JetPolynomial.variable(n, r, p_var(0, (1, 1)))


def test_total_derivative_leibniz():
    rng = RationalLCG(11)
    for _ in range(8):
        f = random_poly(rng, 2, 1, 2)
        g = random_poly(rng, 2, 1, 2)
        for i in range(2):
            lhs = total_derivative(f * g, i)
            rhs = total_derivative(f, i) * g + f * total_derivative(g, i)
            assert lhs == rhs


def test_total_derivatives_commute():
    rng = RationalLCG(13)
    for n in (1, 2, 3):
        for _ in range(4):
            f = random_poly(rng, n, 1, 3)
            for i in range(n):
                for j in range(i + 1, n):
                    dij = total_derivative(total_derivative(f, i), j)
                    dji = total_derivative(total_derivative(f, j), i)
                    assert dij == dji


def test_total_derivative_matches_the_reference():
    rng = RationalLCG(43)
    for n, r, order in ((1, 1, 3), (2, 1, 2), (2, 2, 1), (3, 1, 0)):
        for _ in range(6):
            f = random_poly(rng, n, r, order, degree=3) \
                * JetPolynomial.const(n, r, Fraction(rng.int_range(1, 5), 3))
            for i in range(n):
                assert total_derivative(f, i) == \
                    reference_lift.total_derivative(f, i)


def test_multi_derivative_is_iterated_single():
    rng = RationalLCG(17)
    f = random_poly(rng, 2, 1, 2)
    lhs = total_derivative_multi(f, (2, 1))
    rhs = total_derivative(
        total_derivative(total_derivative(f, 0), 0), 1)
    assert lhs == rhs
    assert len(horizontal_diff(f)) == 2


# ---------------------------------------------------------------- lifted fields

def test_scaling_field_lift():
    x = JetPolynomial.variable(1, 1, x_var(0))
    zero = JetPolynomial.zero(1, 1)
    p = JetPolynomial.variable(1, 1, p_var(0, (1,)))
    p2 = JetPolynomial.variable(1, 1, p_var(0, (2,)))
    X = prolong_point([x], [zero], 2)
    assert X.coefficient(x_var(0)) == x
    assert X.coefficient(u_var(0, 1)) == zero
    assert X.coefficient(p_var(0, (1,))) == -p
    assert X.coefficient(p_var(0, (2,))) == JetPolynomial.const(1, 1, -2) * p2


def test_translation_field_lift_has_no_jet_terms():
    one = JetPolynomial.const(1, 1, 1)
    zero = JetPolynomial.zero(1, 1)
    X = prolong_point([one], [zero], 3)
    for v in jet_coords(1, 1, 3):
        if v == x_var(0):
            assert X.coefficient(v) == one
        else:
            assert X.coefficient(v) == zero


def test_vertical_scaling_lift():
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    zero = JetPolynomial.zero(1, 1)
    X = prolong_point([zero], [u], 2)
    for sigma in ((1,), (2,)):
        assert X.coefficient(p_var(0, sigma)) == JetPolynomial.variable(
            1, 1, p_var(0, sigma))


def test_point_lift_projects_to_lower_order_lift():
    rng = RationalLCG(19)
    for _ in range(5):
        a = [random_poly(rng, 2, 1, 0, degree=2, terms=3)]
        a.append(random_poly(rng, 2, 1, 0, degree=2, terms=3))
        b = [random_poly(rng, 2, 1, 0, degree=2, terms=3)]
        X3 = prolong_point(a, b, 3)
        X2 = prolong_point(a, b, 2)
        proj = X3.project(2)
        for v in jet_coords(2, 1, 2):
            assert proj.coefficient(v) == X2.coefficient(v)


def test_contact_lift_of_translation_generator():
    p = JetPolynomial.variable(1, 1, p_var(0, (1,)))
    X = prolong_contact(p, 2)
    assert X.coefficient(x_var(0)) == JetPolynomial.const(1, 1, -1)
    for v in jet_coords(1, 1, 2):
        if v != x_var(0):
            assert X.coefficient(v) == JetPolynomial.zero(1, 1)


def test_contact_lift_agrees_with_point_lift_on_point_data():
    x = JetPolynomial.variable(1, 1, x_var(0))
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    p = JetPolynomial.variable(1, 1, p_var(0, (1,)))
    phi = u * u - x * p
    Xc = prolong_contact(phi, 2)
    Xp = prolong_point([x], [u * u], 2)
    for v in jet_coords(1, 1, 2):
        assert Xc.coefficient(v) == Xp.coefficient(v)


def test_lifts_refuse_orders_below_their_least_order():
    x = JetPolynomial.variable(1, 1, x_var(0))
    with pytest.raises(ParamOutOfRange):
        prolong_point([x], [x], -1)
    for k in (0, -1):
        with pytest.raises(ParamOutOfRange):
            prolong_contact(x, k)
    assert prolong_point([x], [x], 0).k == 0


def test_kernel_refuses_what_leaves_the_layout():
    lay = jetcalc._layout(1, 1, 1)
    top = [0] * len(lay.coords)
    top[lay.pos[p_var(0, (2,))]] = 1
    with pytest.raises(CancellationFailure, match="leaves the order-2"):
        jetcalc._total_derivative(lay, {tuple(top): 1}, 0)
    # a^i p_(sigma+1_i) with a zero characteristic: nothing cancels it
    x = lay.dense(JetPolynomial.variable(1, 1, x_var(0)))
    with pytest.raises(CancellationFailure, match="survives"):
        jetcalc._lift(lay, [x], [{}])


# The two benchmark families and the families of
# test_symbol_space_and_oracle_share_their_rows.
KERNEL_FAMILIES = [
    ("point", 2, 2, 2), ("contact", 2, 1, 2),
    ("point", 1, 2, 0), ("point", 1, 2, 1),
    ("contact", 1, 1, 1), ("contact", 1, 1, 2),
]

# The reference lifts are slow; the kernel tests below share them.
reference_rows = functools.lru_cache(maxsize=None)(reference_lift.lifted_rows)


@pytest.mark.parametrize("kind, n, r, k", KERNEL_FAMILIES)
def test_kernel_rows_match_the_reference_lift(kind, n, r, k):
    # Every degree <= 7.
    lay = jetcalc._layout(n, r, k)
    for d in range(8):
        rows = [row for _, row in jetcalc._lifted_rows(kind, lay, d)]
        assert rows == reference_rows(kind, n, r, k, d)
        assert all(type(c) is int for row in rows for c in row.values())


@pytest.mark.parametrize("kind, n, r, k", KERNEL_FAMILIES)
def test_truncated_rows_are_the_reference_rows_cut_to_degree_l(kind, n, r,
                                                                 k):
    # Every generator up to degree k + l + 2, past the oracle's reach l + k.
    lay = jetcalc._layout(n, r, k)
    for l in (1, 2, 3):
        for d in range(k + l + 3):
            rows = [row for _, row in jetcalc._lifted_rows(kind, lay, d, l)]
            assert rows == [{c: v for c, v in row.items() if c[0] <= l}
                            for row in reference_rows(kind, n, r, k, d)]


@pytest.mark.parametrize("kind, n, r, k", KERNEL_FAMILIES)
def test_generators_above_degree_l_plus_k_lift_to_nothing(count_calls, kind,
                                                          n, r, k):
    # D_sigma lowers a degree by at most |sigma| <= k, so a generator of
    # degree l + k still reaches degree l and one of degree l + k + 1 does
    # not.  The oracle therefore lifts the degrees 0..l + k, once each, at
    # the default cutoff and at any cutoff of l + k or more.
    lay = jetcalc._layout(n, r, k)
    for l in (1, 2, 3):
        assert any(row for _, row in jetcalc._lifted_rows(kind, lay, l + k, l))
        for d in (l + k + 1, l + k + 2):
            rows = jetcalc._lifted_rows(kind, lay, d, l)
            assert rows and not any(row for _, row in rows)
    degrees = count_calls(jetcalc, "_lifted_rows",
                          key=lambda kind, lay, d, l=None: d)
    for l in (1, 2, 3):
        for cutoff in (None, l + k, l + k + 3):
            jetcalc._lift_store.cache_clear()
            degrees.clear()
            symbol_oracle(kind, n, r, k, l, cutoff=cutoff)
            assert degrees == dict.fromkeys(range(l + k + 1), 1)


@pytest.mark.parametrize("kind, n, r, k", KERNEL_FAMILIES)
def test_saturation_pass_runs_only_below_l_plus_k(count_calls, kind, n, r,
                                                  k):
    # At a cutoff of l + k or more one pass reads every generator that
    # reaches degree l; below it a second pass at cutoff + 1 checks the
    # first, and may fail.
    passes = count_calls(jetcalc, "_order_l_rows")
    for l in (1, 2, 3):
        runs = [(cutoff, 1) for cutoff in (None, l + k, l + k + 3)]
        runs += [(cutoff, 2) for cutoff in range(l, l + k)]
        for cutoff, expected in runs:
            before = passes.total()
            try:
                symbol_oracle(kind, n, r, k, l, cutoff=cutoff)
            except CancellationFailure:
                assert expected == 2
            assert passes.total() - before == expected


def rational_polynomial(data, n, r, order):
    """A drawn polynomial of degree <= 3 with rational coefficients in the
    variables of order <= order."""
    st = pytest.importorskip("hypothesis.strategies")
    coefficient = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    coords = jet_coords(n, r, order)
    terms = data.draw(st.lists(st.tuples(
        coefficient, st.lists(st.sampled_from(coords), max_size=3)),
        max_size=4))
    return JetPolynomial(n, r, {tuple((v, 1) for v in mono): c
                                for c, mono in terms})


def test_lifts_match_the_reference_lift_on_rational_data():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 2))
        if data.draw(st.booleans()):
            r = data.draw(st.integers(1, 2))
            k = data.draw(st.integers(0, 3))
            a = [rational_polynomial(data, n, r, 0) for _ in range(n)]
            b = [rational_polynomial(data, n, r, 0) for _ in range(r)]
            got = prolong_point(a, b, k)
            want = reference_lift.prolong_point(a, b, k)
        else:
            k = data.draw(st.integers(1, 3))
            phi = rational_polynomial(data, n, 1, 1)
            got = prolong_contact(phi, k)
            want = reference_lift.prolong_contact(phi, k)
        assert got.coeffs == want.coeffs
        assert (got.n, got.r, got.k) == (want.n, want.r, want.k)

    check()


def cut_to_degree(field, l):
    """The field's coefficients with their terms of degree <= l."""
    out = {}
    for v, poly in field.coeffs.items():
        terms = {m: c for m, c in poly.terms.items()
                 if sum(e for _, e in m) <= l}
        if terms:
            out[v] = JetPolynomial(field.n, field.r, terms)
    return out


def test_truncated_lifts_match_the_reference_cut_to_degree_l():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=60, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 2))
        l = data.draw(st.integers(0, 4))
        if data.draw(st.booleans()):
            r = data.draw(st.integers(1, 2))
            k = data.draw(st.integers(0, 3))
            a = [rational_polynomial(data, n, r, 0) for _ in range(n)]
            b = [rational_polynomial(data, n, r, 0) for _ in range(r)]
            lay = jetcalc._layout(n, r, k)
            got = jetcalc._point_lift(lay, [lay.dense(f) for f in a],
                                      [lay.dense(f) for f in b], l)
            want = reference_lift.prolong_point(a, b, k)
        else:
            k = data.draw(st.integers(1, 3))
            phi = rational_polynomial(data, n, 1, 1)
            lay = jetcalc._layout(n, 1, k)
            got = jetcalc._contact_lift(lay, lay.dense(phi), l)
            want = reference_lift.prolong_contact(phi, k)
        assert lay.field(got).coeffs == cut_to_degree(want, l)

    check()


def test_field_constructor_rejects_overflowing_orders():
    p2 = JetPolynomial.variable(1, 1, p_var(0, (2,)))
    with pytest.raises(CancellationFailure):
        LieField(1, 1, 1, {x_var(0): p2})
    with pytest.raises(CancellationFailure):
        LieField(1, 1, 1, {p_var(0, (2,)): JetPolynomial.const(1, 1, 1)})


def test_point_lift_is_a_lie_algebra_morphism():
    rng = RationalLCG(23)
    n, r, k = 1, 2, 2

    def base_fields(rng):
        a = [random_poly(rng, n, r, 0, degree=2, terms=3) for _ in range(n)]
        b = [random_poly(rng, n, r, 0, degree=2, terms=3) for _ in range(r)]
        return a, b

    def base_apply(a, b, f):
        out = JetPolynomial.zero(n, r)
        for i in range(n):
            out = out + a[i] * f.diff(x_var(i))
        for j in range(r):
            out = out + b[j] * f.diff(u_var(j, n))
        return out

    for _ in range(3):
        a1, b1 = base_fields(rng)
        a2, b2 = base_fields(rng)
        a3 = [base_apply(a1, b1, a2[i]) - base_apply(a2, b2, a1[i])
              for i in range(n)]
        b3 = [base_apply(a1, b1, b2[j]) - base_apply(a2, b2, b1[j])
              for j in range(r)]
        lhs = prolong_point(a1, b1, k).bracket(prolong_point(a2, b2, k))
        rhs = prolong_point(a3, b3, k)
        for v in jet_coords(n, r, k):
            assert lhs.coefficient(v) == rhs.coefficient(v)


# ---------------------------------------------------------------- structure preservation

def test_lifted_fields_preserve_structure_forms():
    rng = RationalLCG(29)
    x = JetPolynomial.variable(1, 1, x_var(0))
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    fields = [
        prolong_point([x], [JetPolynomial.zero(1, 1)], 2),
        prolong_point([JetPolynomial.const(1, 1, 1)], [u * u], 2),
        prolong_contact(parse_jet_polynomial("u - x1*p[1,1]", 1, 1), 2),
    ]
    for X in fields:
        assert cartan_preservation_check(X, trials=10, seed=3)


def test_raw_coordinate_field_fails_structure_check():
    bad = LieField(1, 2, 1, {p_var(0, (1,)): JetPolynomial.const(1, 2, 1)})
    assert not cartan_preservation_check(bad, trials=10, seed=3)


# ---------------------------------------------------------------- points and frames

def test_jet_point_requires_total_assignment():
    with pytest.raises(ParamOutOfRange):
        JetPoint(1, 1, 1, {x_var(0): Fraction(0)})


def test_jet_point_random_is_seed_deterministic():
    a = JetPoint.random(2, 1, 2, RationalLCG(42))
    b = JetPoint.random(2, 1, 2, RationalLCG(42))
    for v in jet_coords(2, 1, 2):
        assert a.value(v) == b.value(v)


def test_rational_generator_stream_is_frozen():
    rng = RationalLCG(0)
    assert [rng.int_range(-9, 9) for _ in range(4)] == [5, 1, 3, 7]
    rng7 = RationalLCG(7)
    assert [str(rng7.fraction()) for _ in range(4)] == ["-1/4", "9/7", "-1/8", "-6"]


def test_frame_of_base_coordinates_gives_plain_derivatives():
    rng = RationalLCG(31)
    n, r = 2, 1
    frame = [JetPolynomial.variable(n, r, x_var(i)) for i in range(n)]
    for _ in range(10):
        f = random_poly(rng, n, r, 1)
        pt = JetPoint.random(n, r, 2, rng)
        got = tresse(f, TresseFrame(frame, pt))
        want = [total_derivative(f, i).evaluate(pt) for i in range(n)]
        assert got == want


def test_frame_derivative_of_frame_is_identity():
    rng = RationalLCG(37)
    n, r = 2, 2
    frame = [poly("x1 + u1", n, r), poly("x2 + u2^2", n, r)]
    for _ in range(10):
        pt = JetPoint.random(n, r, 2, rng)
        try:
            tf = TresseFrame(frame, pt)
        except SingularJacobian:
            continue
        for a in range(n):
            got = tresse(frame[a], tf)
            assert got == [Fraction(1 if b == a else 0) for b in range(n)]


def test_one_dimensional_frame_quotient():
    pt = JetPoint.random(1, 1, 2, RationalLCG(1))
    pval = pt.value(p_var(0, (1,)))
    assert pval == Fraction(2, 7)
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    frame = parse_jet_polynomial("x1 + u", 1, 1)
    assert tresse(u, TresseFrame([frame], pt)) == [pval / (1 + pval)]
    num, den = tresse_symbolic(u, frame)
    p = JetPolynomial.variable(1, 1, p_var(0, (1,)))
    assert num == p
    assert den == JetPolynomial.const(1, 1, 1) + p


def test_singular_frame_is_rejected():
    u = JetPolynomial.variable(1, 1, u_var(0, 1))
    with pytest.raises(SingularJacobian):
        TresseFrame([u], JetPoint.origin(1, 1, 1))


# ---------------------------------------------------------------- oracle

def test_oracle_matches_closed_forms_on_spot_checks():
    assert symbol_oracle("point", 1, 2, 1, 1) == 13
    assert symbol_oracle("point", 1, 2, 0, 1) == 9
    assert symbol_oracle("point", 2, 2, 1, 1) == point_lie_total(2, 2, 1, 1)
    assert symbol_oracle("contact", 1, 1, 1, 1) == contact_lie_dim(1, 1, 1)
    assert symbol_oracle("contact", 1, 1, 1, 2) == contact_lie_dim(1, 1, 2)


def test_oracle_rejects_unknown_family():
    with pytest.raises(ParamOutOfRange):
        symbol_oracle("projective", 1, 1, 1, 1)


def test_oracle_respects_column_cap():
    with pytest.raises(CapExceeded):
        symbol_oracle("point", 2, 2, 2, 3, cap=100)


def test_oracle_check_raises_what_the_oracle_raises_and_lifts_nothing(
        count_calls):
    lifted = count_calls(jetcalc, "_lifted_rows")
    with pytest.raises(CapExceeded, match="9520 columns"):
        jetcalc.check_symbol_oracle("point", 2, 2, 2, 3, cap=1000)
    with pytest.raises(ParamOutOfRange, match="l >= 1"):
        jetcalc.check_symbol_oracle("point", 2, 2, 2, 0, cap=100)
    with pytest.raises(ParamOutOfRange):
        jetcalc.check_symbol_oracle("projective", 1, 1, 1, 1)
    with pytest.raises(ParamOutOfRange):
        jetcalc.check_symbol_oracle("contact", 1, 2, 1, 1)
    jetcalc.check_symbol_oracle("point", 2, 2, 2, 3)
    assert lifted.total() == 0


@pytest.mark.parametrize("family, dim", [
    (("point", 1, 2, 0, 1), 9),
    (("point", 1, 2, 1, 1), 13),
    (("point", 1, 2, 1, 2), 24),
    (("contact", 1, 1, 1, 1), 6),
    (("contact", 1, 1, 1, 2), 10),
    (("contact", 1, 1, 2, 1), 8),
])
def test_symbol_space_and_oracle_share_their_rows(family, dim):
    kind, n, r, k, l = family
    closed = point_lie_total(n, r, k, l) if kind == "point" \
        else contact_lie_dim(n, k, l)
    sub = lie_symbol_subspace(*family)
    assert sub.dim == symbol_oracle(*family) == closed == dim
    width = len(jet_coords(n, r, k))
    assert sub.ambient == TensorShape(width, l, 0, width)


def test_materialized_symbol_space_matches_oracle_dimension():
    sub = lie_symbol_subspace("point", 1, 2, 1, 1)
    assert sub.dim == 13
    assert sub.ambient.base_dim == 5
    assert sub == point_lie_embed(1, 2, 1, 1)
    assert lie_symbol_subspace("point", 1, 2, 0, 1).dim == 9


def test_symbol_space_respects_the_default_cap(monkeypatch):
    # A 7840-dimensional ambient is above the default cap of 5000.
    with pytest.raises(CapExceeded):
        lie_symbol_subspace("point", 2, 2, 2, 3)
    monkeypatch.setenv("SPENCER_CAP", "10")
    with pytest.raises(CapExceeded):
        lie_symbol_subspace("point", 1, 2, 1, 1)
    assert lie_symbol_subspace("point", 1, 2, 1, 1, cap=25).dim == 13


def test_oracle_refuses_cutoff_below_l():
    # Below l both passes could read 0 and saturation would pass; the
    # true values are 30, 15 and 24.
    with pytest.raises(ParamOutOfRange):
        symbol_oracle("point", 1, 2, 0, 3, cutoff=1)
    with pytest.raises(ParamOutOfRange):
        symbol_oracle("contact", 1, 1, 1, 3, cutoff=1)
    with pytest.raises(ParamOutOfRange):
        lie_symbol_subspace("point", 1, 2, 1, 2, cutoff=0)
    assert symbol_oracle("point", 1, 2, 0, 3, cutoff=3) == 30
    with pytest.raises(CancellationFailure):
        symbol_oracle("contact", 1, 1, 1, 3, cutoff=3)


@pytest.mark.parametrize("group, name, lifts", [
    ("point_lie:n=1,r=2,k=1", "_point_lift", 105),
    ("contact_lie:n=1,k=1", "_contact_lift", 35),
])
def test_oracle_lifts_each_generator_once(count_calls, capsys, group, name,
                                          lifts):
    # Degrees 0..l + k = 0..4 serve l = 1..3; for the point family that is
    # 3 * C(d + 2, 2) generators of degree d, for the contact family
    # C(d + 2, 2).  The counter is keyed by the generating data.
    jetcalc._lift_store.cache_clear()
    calls = count_calls(jetcalc, name, key=lambda lay, *data: repr(data))
    assert main(["oracle", "--group", group, "--l", "1..3"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(r["match"] for r in rows)
    assert set(calls.values()) == {1}
    assert calls.total() == lifts


@pytest.mark.parametrize("group, family", [
    ("point_lie:n=2,r=2,k=2", ("point", 2, 2, 2)),
    ("contact_lie:n=2,k=2", ("contact", 2, 1, 2)),
])
def test_ascending_library_calls_agree_with_the_cli(count_calls, capsys,
                                                    group, family):
    assert main(["oracle", "--group", group, "--l", "1..3"]) == 0
    cli = [r["oracle"] for r in json.loads(capsys.readouterr().out)["rows"]]
    jetcalc._lift_store.cache_clear()
    lifted = count_calls(jetcalc, "_lifted_rows",
                         key=lambda kind, lay, d, l=None: l)
    got = [symbol_oracle(*family, l) for l in (1, 3, 2)]
    assert got == [cli[0], cli[2], cli[1]]
    # l = 1 lifts degrees 0..k + 1; l = 3 lifts degrees 0..k + 3 again,
    # truncated at 3; l = 2 reads the stored rows.
    k = family[3]
    assert lifted == {1: k + 2, 3: k + 4}


def test_saturation_recomputes_with_a_warm_lift_store():
    jetcalc._lift_store.cache_clear()
    assert symbol_oracle("point", 1, 2, 1, 2) == 24
    with pytest.raises(CancellationFailure, match=r"not saturated \(12 -> 24\)"):
        symbol_oracle("point", 1, 2, 1, 2, cutoff=2)
    with pytest.raises(CancellationFailure, match=r"not saturated \(12 -> 24\)"):
        lie_symbol_subspace("point", 1, 2, 1, 2, cutoff=2)
