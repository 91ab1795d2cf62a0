"""Flag restriction calculus: stationary subspaces, obstruction spaces,
row cohomology, and the restriction comparison maps."""

import collections
import importlib
import json
import math
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

from per_cell import (PerCellComplex, per_cell_stationary_complex,
                      per_cell_tau_form_complex, reference_covariants,
                      stationary_grades, stationary_row_space)
from spencer.cli import main
from spencer.errors import (ConsistencyCheckFailed, EquationNotInvariant,
                            NotASubcomplex)
from spencer.exactla import (LinearMap, TensorShape, Subspace, det, image,
                             kernel, solve, sym_basis, tensor_all_forms,
                             tensor_rows_with_wedge, wedge_basis)
from spencer.symbolic import (CochainComplex, SymbolicSystem, _cone_rows,
                              _lowering_table, _substituted, delta_map,
                              spencer_complex, spencer_H,
                              strongly_noncharacteristic)
from spencer.covariants import (
    FlagContext, restriction_map, restriction_kernel, stationary_subspace,
    covariants, ORDER_ONE_CAVEAT,
    stationary_row_cohomology, restricted_spencer_H, stationary_tau_cohomology,
    covariant_cohomology, acyclicity_window,
    restriction_isomorphism_check, transversality_scan,
    covariant_complex, stationary_row_complex, tau_form_complex,
)
from spencer.catalog import parse_pseudogroup, symbol, system, stratum_tau


def axis_flag(m, n):
    return FlagContext(m, [[1 if j == i else 0 for j in range(m)]
                           for i in range(n)])


RATIONAL_PLANE = [[Fraction(1, 2), 2, Fraction(1, 2), 1],
                  [Fraction(-3, 4), 2, 1, 2]]
RATIONAL_3_PLANE = RATIONAL_PLANE + [[Fraction(-3, 4), 2, Fraction(1, 2), -1]]
# Lagrangian for symplectic:2n=4 (symmetric lower block).
RATIONAL_LAGRANGIAN = [[1, 0, Fraction(1, 2), Fraction(-3, 4)],
                       [0, 1, Fraction(-3, 4), Fraction(2, 3)]]


# ---------------------------------------------------------------- restriction

def test_restriction_kernel_dimensions():
    assert restriction_kernel(axis_flag(2, 1), 1).dim == 3
    assert restriction_kernel(axis_flag(3, 2), 2).dim == 15


def test_restriction_kernel_is_kernel_of_restriction_map():
    for m in (2, 3, 4):
        for n in range(1, m):
            ctx = axis_flag(m, n)
            for l in (1, 2, 3):
                assert kernel(restriction_map(ctx, l)) == restriction_kernel(ctx, l)


def test_restriction_map_surjective_on_full_source():
    from spencer.exactla import image
    for m in (2, 3):
        for n in range(1, m):
            ctx = axis_flag(m, n)
            for l in (1, 2):
                assert image(restriction_map(ctx, l)).is_full


def test_oblique_flag_matches_axis_flag_dimensions():
    # restriction theory only sees the flag up to linear equivalence
    straight = axis_flag(3, 1)
    slanted = FlagContext(3, [[1, 2, -1]])
    for l in (1, 2, 3):
        assert (restriction_kernel(straight, l).dim
                == restriction_kernel(slanted, l).dim)


def reference_restriction_kernel(ctx, l):
    """The kernel as one elimination over the cone rows ann . S^(l-1) (x) V
    and the rows S^l (x) tau."""
    shp = TensorShape(ctx.m, l, 0, ctx.m)
    rows = _cone_rows(ctx.ann, shp)
    for mono_i in range(shp.sym_count):
        for t in ctx.tau:
            rows.append({shp.index(mono_i, 0, b): c
                         for b, c in enumerate(t) if c})
    return Subspace.from_rows(shp, rows)


def _named(group, name):
    return stratum_tau(parse_pseudogroup(group), name)


@pytest.mark.parametrize("tau", [
    pytest.param([[1, 0]], id="axis-line-m2"),
    pytest.param([[1, 2, -1]], id="integer-line-m3"),
    pytest.param([[0, 1, 0], [0, 0, 1]], id="axis-plane-late-pivots-m3"),
    pytest.param([[2, 4, 0, 6], [0, 0, 3, -3]], id="integer-plane-m4"),
    pytest.param(RATIONAL_PLANE, id="rational-plane-m4"),
    pytest.param(RATIONAL_3_PLANE, id="rational-3-plane-m4"),
    pytest.param([[Fraction(1, 2), Fraction(-2, 3), 1]], id="rational-line-m3"),
    pytest.param([[0, 1, Fraction(-5, 2), Fraction(-1, 2), Fraction(7, 8)],
                  [0, 0, 1, Fraction(-3, 2), 7]],
                 id="rational-plane-m5"),
    pytest.param(_named("complex:nc=2", "j-invariant-line"),
                 id="j-invariant-line"),
    pytest.param(_named("symplectic:2n=4", "omega-nondegenerate"),
                 id="omega-nondegenerate"),
    pytest.param(_named("contact:dim=3", "transversal-to-contact-plane"),
                 id="transversal-to-contact-plane"),
    pytest.param(_named("symplectic:2n=4", "lagrangian"), id="lagrangian"),
])
def test_restriction_kernel_matches_the_eliminated_sum_of_rows(tau):
    # (ann . S^(l-1)) (x) nu' + S^l (x) tau, only back-substituted, is the
    # same canonical Subspace as the eliminated rows of both visible pieces.
    ctx = FlagContext(len(tau[0]), tau)
    for l in range(1, 5):
        assert restriction_kernel(ctx, l) == reference_restriction_kernel(
            ctx, l)


def cofactor_det(matrix):
    """Reference determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum((-1) ** col * v * cofactor_det([row[:col] + row[col + 1:]
                                               for row in matrix[1:]])
               for col, v in enumerate(matrix[0]))


def reference_restriction_map(ctx, d, s):
    """The restriction of everything, S^d V* (x) Lambda^s V* (x) V ->
    S^d tau* (x) Lambda^s tau* (x) nu: restriction_map(ctx, d) tensor the
    exterior power of the restriction, whose entries are the s x s minors
    of tau."""
    lam = restriction_map(ctx, d)
    dom = TensorShape(ctx.m, d, s, ctx.m)
    cod = TensorShape(ctx.n, d, s, ctx.r)
    minors = [{i: cofactor_det([[ctx.tau[a][j] for j in J] for a in K])
               for i, K in enumerate(wedge_basis(ctx.n, s))}
              for J in wedge_basis(ctx.m, s)]
    rows = []
    for mono_i in range(dom.sym_count):
        for minor in minors:
            for b in range(ctx.m):
                row = {}
                for col, v in lam.rows[mono_i * ctx.m + b].items():
                    sym_i, val_i = divmod(col, ctx.r)
                    for wedge_i, w in minor.items():
                        if w:
                            row[cod.index(sym_i, wedge_i, val_i)] = v * w
                rows.append(row)
    return LinearMap(dom, cod, rows)


@pytest.mark.parametrize("tau", [
    pytest.param(stratum_tau(parse_pseudogroup("symplectic:2n=4"),
                             "lagrangian"), id="axis-lagrangian"),
    # Lagrangian too, so lambda(g_d) is not full.
    pytest.param(RATIONAL_LAGRANGIAN, id="rational-lagrangian")])
def test_restricted_forms_are_the_restricted_grade_tensor_all_forms(tau):
    # Lambda^s of the restriction is onto, so the image of g_d (x)
    # Lambda^s V* is the image of g_d tensor all forms on tau.
    ctx = FlagContext(4, tau)
    gsys = system(parse_pseudogroup("symplectic:2n=4"), 3)
    for d in range(4):
        g = gsys.grade(d)
        lam_g = image(restriction_map(ctx, d), g)
        assert d == 0 or lam_g.dim < lam_g.ambient.dim
        for s in range(ctx.m + 1):
            ref = reference_restriction_map(ctx, d, s)
            want = image(ref, tensor_all_forms(g, ref.domain))
            assert want == tensor_all_forms(lam_g, ref.codomain)


def test_covariant_table_restricts_each_degree_once(count_calls):
    covariants_module = importlib.import_module("spencer.covariants")
    calls = count_calls(covariants_module, "restriction_map",
                        key=lambda ctx, l: l)
    ctx = FlagContext(4, RATIONAL_3_PLANE)
    gsys = system(parse_pseudogroup("general:m=4"), 5)
    covariant_complex(ctx, gsys, None).table(range(1, 5), range(4), "t")
    assert sorted(calls) == [0, 1, 2, 3, 4, 5]
    assert set(calls.values()) == {1}


# ---------------------------------------------------------------- reports

def test_full_source_reports_over_a_line():
    ctx = axis_flag(2, 1)
    expected = {1: (4, 3), 2: (6, 5), 3: (8, 7)}
    for l, (dim_g, dim_stat) in expected.items():
        rep = covariants(ctx, Subspace.full(TensorShape(2, l, 0, 2)))
        assert rep.dim_g == dim_g
        assert rep.dim_stationary == dim_stat
        assert rep.dim_O == 0
        assert rep.transversal


def test_order_one_reports_carry_caveat():
    ctx = axis_flag(2, 1)
    rep1 = covariants(ctx, Subspace.full(TensorShape(2, 1, 0, 2)))
    rep2 = covariants(ctx, Subspace.full(TensorShape(2, 2, 0, 2)))
    assert rep1.caveat == ORDER_ONE_CAVEAT
    assert rep2.caveat is None


def test_report_jsonable_fields():
    ctx = axis_flag(2, 1)
    data = covariants(ctx, Subspace.full(TensorShape(2, 2, 0, 2))).to_jsonable()
    for field in ("l", "dim_g", "dim_h", "dim_stationary",
                  "dim_lambda_image", "dim_O", "transversal",
                  "dim_necessary_ok"):
        assert field in data


def test_equation_must_contain_restricted_source():
    ctx = axis_flag(2, 1)
    g = Subspace.full(TensorShape(2, 1, 0, 2))
    h = Subspace.zero(TensorShape(1, 1, 0, 1))
    with pytest.raises(EquationNotInvariant):
        covariants(ctx, g, h)


GENERIC_3_PLANE = [[1, 0, 2, 0, 1, 0], [0, 1, 0, 3, 0, -1],
                   [1, 1, 0, 0, 2, 1]]


@pytest.mark.parametrize("group, flag, l_max", [
    pytest.param("symplectic:2n=6", GENERIC_3_PLANE, 3,
                 id="symplectic:2n=6-generic-3-plane-3"),
    ("symplectic:2n=6", "lagrangian", 4),
    ("symplectic:2n=4", "lagrangian", 4),
    ("symplectic:2n=4", "omega-nondegenerate", 4),
    ("complex:nc=2", "totally-real", 4),
    ("complex:nc=2", "j-invariant-line", 4),
    ("contact:dim=3", "transversal-to-contact-plane", 4),
    ("contact:dim=3", "inside-contact-plane", 4),
])
def test_reports_match_the_zassenhaus_reference(group, flag, l_max):
    # The report reads the stationary dimension off the sum of g_l and the
    # restriction kernel, a rank of residuals modulo the kernel; the
    # reference intersects g_l with that kernel by Zassenhaus elimination.
    spec = parse_pseudogroup(group)
    tau = stratum_tau(spec, flag) if isinstance(flag, str) else flag
    ctx = FlagContext(spec.ambient_dim, tau)
    for l in range(1, l_max + 1):
        g = symbol(spec, l)
        assert covariants(ctx, g) == reference_covariants(ctx, g)


def test_reports_intersect_no_subspaces(count_calls):
    # covariants() needs only the dimension of g_l meet sigma.
    covariants_module = importlib.import_module("spencer.covariants")
    meets = count_calls(covariants_module, "subspace_intersect")
    spec = parse_pseudogroup("symplectic:2n=6")
    ctx = FlagContext(6, GENERIC_3_PLANE)
    for l in (1, 2, 3):
        covariants(ctx, symbol(spec, l))
    assert meets.total() == 0
    stationary_subspace(ctx, symbol(spec, 2))
    assert meets.total() == 1


SHORT_KERNEL_CASES = [
    ("symplectic:2n=6", "lagrangian", "do not add up"),
    pytest.param("symplectic:2n=4", RATIONAL_PLANE, "do not add up",
                 id="symplectic:2n=4-rational-plane"),
    ("complex:nc=2", "totally-real", "disagree"),
]


@pytest.mark.parametrize("group, flag, message", SHORT_KERNEL_CASES)
def test_report_checks_catch_a_restriction_kernel_without_its_last_row(
        monkeypatch, group, flag, message):
    covariants_module = importlib.import_module("spencer.covariants")
    whole = covariants_module.restriction_kernel

    def short(ctx, l):
        sigma = whole(ctx, l)
        if l != 2:
            return sigma
        return Subspace(sigma.ambient, dict(zip(sigma.pivots[:-1],
                                                sigma.int_rows[:-1])))

    monkeypatch.setattr(covariants_module, "restriction_kernel", short)
    spec = parse_pseudogroup(group)
    tau = stratum_tau(spec, flag) if isinstance(flag, str) else flag
    ctx = FlagContext(spec.ambient_dim, tau)
    covariants(ctx, symbol(spec, 1))
    with pytest.raises(ConsistencyCheckFailed, match=message):
        covariants(ctx, symbol(spec, 2))


@pytest.mark.parametrize("group, flag", [
    ("symplectic:2n=6", "lagrangian"),
    ("symplectic:2n=4", "lagrangian"),
    ("complex:nc=2", "totally-real"),
])
def test_report_checks_catch_a_restriction_map_with_a_zeroed_row(
        monkeypatch, group, flag):
    # On an axis stratum the nonzero rows of the restriction are distinct
    # unit rows, so zeroing the first one drops the image of g_2, while the
    # stationary dimension, taken modulo restriction_kernel, stays.
    covariants_module = importlib.import_module("spencer.covariants")
    whole = covariants_module.restriction_map

    def zeroed(ctx, l):
        lam = whole(ctx, l)
        if l != 2:
            return lam
        rows = list(lam.rows)
        rows[next(i for i, row in enumerate(rows) if row)] = {}
        return LinearMap(lam.domain, lam.codomain, rows)

    monkeypatch.setattr(covariants_module, "restriction_map", zeroed)
    spec = parse_pseudogroup(group)
    ctx = FlagContext(spec.ambient_dim, stratum_tau(spec, flag))
    covariants(ctx, symbol(spec, 1))
    with pytest.raises(ConsistencyCheckFailed, match="do not add up"):
        covariants(ctx, symbol(spec, 2))


# ---------------------------------------------------------------- catalog obstructions

def test_rotation_obstruction_rows():
    expected = {
        (2, 1): [0, 1, 1, 1],
        (3, 1): [0, 2, 2, 2],
        (3, 2): [0, 3, 4, 5],
    }
    for (m, n), row in expected.items():
        spec = parse_pseudogroup("isometry:n=%d" % m)
        ctx = axis_flag(m, n)
        got = [covariants(ctx, symbol(spec, l)).dim_O for l in (1, 2, 3, 4)]
        assert got == row


def test_complex_structure_obstructions():
    cx = parse_pseudogroup("complex:nc=2")
    real = FlagContext(4, stratum_tau(cx, "totally-real"))
    jline = FlagContext(4, stratum_tau(cx, "j-invariant-line"))
    assert [covariants(real, symbol(cx, l)).dim_O for l in (1, 2, 3)] == [0, 0, 0]
    assert [covariants(jline, symbol(cx, l)).dim_O for l in (1, 2)] == [2, 4]


def test_symplectic_strata_obstructions():
    sp4 = parse_pseudogroup("symplectic:2n=4")
    lag = FlagContext(4, stratum_tau(sp4, "lagrangian"))
    nondeg = FlagContext(4, stratum_tau(sp4, "omega-nondegenerate"))
    assert [covariants(lag, symbol(sp4, l)).dim_O for l in (1, 2)] == [1, 2]
    assert [covariants(nondeg, symbol(sp4, l)).dim_O for l in (1, 2)] == [0, 0]


def test_contact_strata_obstructions():
    c3 = parse_pseudogroup("contact:dim=3")
    trans = FlagContext(3, stratum_tau(c3, "transversal-to-contact-plane"))
    inside = FlagContext(3, stratum_tau(c3, "inside-contact-plane"))
    assert [covariants(trans, symbol(c3, l)).dim_O for l in (1, 2, 3)] == [0, 0, 0]
    assert [covariants(inside, symbol(c3, l)).dim_O for l in (1, 2)] == [1, 1]


# ---------------------------------------------------------------- row cohomology

def test_full_source_row_cohomology_vanishes():
    gsys = system(parse_pseudogroup("general:m=3"), 5)
    for n in (1, 2):
        ctx = axis_flag(3, n)
        for l in (1, 2, 3, 4):
            for s in range(0, min(n, l) + 1):
                assert covariant_cohomology(ctx, gsys, None, l, s) == 0


def test_stationary_row_cohomology_vanishes_above_order():
    cx = parse_pseudogroup("complex:nc=2")
    ctx = FlagContext(4, stratum_tau(cx, "totally-real"))
    gsys = system(cx, 6)
    for a in (1, 2, 3):
        assert stationary_row_cohomology(ctx, gsys, a, 0) == 0
        assert stationary_row_cohomology(ctx, gsys, a + 1, 1) == 0


def test_acyclicity_window_full_source():
    gsys = system(parse_pseudogroup("general:m=3"), 5)
    assert acyclicity_window(gsys, 1, 4, 3) == 3


def test_quotient_cohomology_matches_stationary_shift():
    # two-step comparison under machine-checked vanishing hypotheses
    cases = []
    g3 = system(parse_pseudogroup("general:m=3"), 6)
    cases.append((axis_flag(3, 1), g3, 3, 1))
    cx = parse_pseudogroup("complex:nc=2")
    cases.append((FlagContext(4, stratum_tau(cx, "totally-real")),
                  system(cx, 6), 3, 1))
    for ctx, gsys, l, s in cases:
        full_h = SymbolicSystem(ctx.m, gsys.value_dim, {}, fill="full")
        assert spencer_H(gsys, l - s - 1, s + 1) == 0
        assert spencer_H(gsys, l - s - 2, s + 2) == 0
        assert restricted_spencer_H(ctx, full_h, l, s) == 0
        assert spencer_H(full_h, l - s - 1, s + 1) == 0
        lhs = covariant_cohomology(ctx, gsys, None, l, s)
        rhs = stationary_row_cohomology(ctx, gsys, l, s + 2)
        assert lhs == rhs


# ---------------------------------------------------------------- comparison map

def test_restriction_isomorphism_on_totally_real_flag():
    cx = parse_pseudogroup("complex:nc=2")
    ctx = FlagContext(4, stratum_tau(cx, "totally-real"))
    gsys = system(cx, 6)
    assert strongly_noncharacteristic(ctx.tau, symbol(cx, 1))
    for (l, s) in ((3, 1), (4, 1), (4, 2)):
        res = restriction_isomorphism_check(ctx, gsys, l, s, 1)
        assert res.applicable
        assert res.lhs == res.rhs


def test_restriction_isomorphism_on_planar_rotations():
    iso2 = parse_pseudogroup("isometry:n=2")
    ctx = axis_flag(2, 1)
    gsys = system(iso2, 6)
    assert strongly_noncharacteristic(ctx.tau, symbol(iso2, 1))
    for l in (2, 3, 4):
        res = restriction_isomorphism_check(ctx, gsys, l, 0, 1)
        assert res.applicable
        assert res.lhs == res.rhs
        assert res.window == 1


def test_characteristic_flag_is_reported_not_applicable():
    gsys = system(parse_pseudogroup("general:m=3"), 5)
    res = restriction_isomorphism_check(axis_flag(3, 1), gsys, 3, 1, 1)
    assert not res.strongly_noncharacteristic
    assert not res.applicable


# ---------------------------------------------------------------- scan

def test_transversality_scan_planar_hamiltonian():
    sp2 = parse_pseudogroup("symplectic:2n=2")
    gsys = system(sp2, 4)
    ctx = axis_flag(2, 1)
    entries = transversality_scan(ctx, gsys, None, 3)
    assert [e.report.l for e in entries] == [1, 2, 3]
    for e in entries:
        assert e.report.transversal
        assert e.report.dim_O == 0
        assert e.stationary_tau_H2_zero
        assert e.restricted_H1_zero
    flat = entries[0].to_jsonable()
    assert flat["l"] == 1
    assert flat["stationary_tau_H2_zero"] is True


# ---------------------------------------------------------------- cochain engine

def test_one_complex_table_matches_the_per_cell_functions():
    cx = parse_pseudogroup("complex:nc=2")
    gsys = system(cx, 6)
    nonzero = 0
    for tau in (stratum_tau(cx, "totally-real"), RATIONAL_PLANE):
        ctx = FlagContext(4, tau)
        cases = [
            (spencer_complex(gsys), lambda d, s: spencer_H(gsys, d, s)),
            (stationary_row_complex(ctx, gsys),
             lambda d, s: stationary_row_cohomology(ctx, gsys, d + s, s)),
            (tau_form_complex(ctx, gsys, stationary=False),
             lambda d, s: restricted_spencer_H(ctx, gsys, d + s, s)),
            (tau_form_complex(ctx, gsys, stationary=True),
             lambda d, s: stationary_tau_cohomology(ctx, gsys, d + s, s)),
            (covariant_complex(ctx, gsys, None),
             lambda d, s: covariant_cohomology(ctx, gsys, None, d + s, s)),
        ]
        for complex_, per_cell in cases:
            d_range, s_range = range(-1, 4), range(-1, complex_.top + 2)
            table = complex_.table(d_range, s_range, "t").cells
            assert table == {(d, s): per_cell(d, s)
                             for d in d_range for s in s_range}
            assert all(v == 0 for (d, s), v in table.items()
                       if d < 0 or s < 0 or s > complex_.top)
            nonzero += sum(1 for v in table.values() if v)
    assert nonzero


def per_cell_covariant_complex(ctx, gsys, hsys):
    """The covariant complex cell by cell: h_d (x) Lambda^s tau* modulo
    lambda(g_d) (x) Lambda^s tau*, with h full when hsys is None."""
    n, r = ctx.n, ctx.r

    def cell(d, s):
        shape = TensorShape(n, d, s, r)
        return Subspace.full(shape) if hsys is None \
            else tensor_all_forms(hsys.grade(d), shape)

    def sub(d, s):
        return tensor_all_forms(image(restriction_map(ctx, d), gsys.grade(d)),
                                TensorShape(n, d, s, r))

    return PerCellComplex(n, cell, delta_map, sub)


# Flags that are not transversal: lambda(g_d) is a proper nonzero subspace,
# so the engine takes the covariant ranks modulo a proper next cell.
@pytest.mark.parametrize("group, stratum, nonzero", [
    ("contact:dim=3", "inside-contact-plane", {(1, 0): 1}),
    ("symplectic:2n=4", "lagrangian", {(1, 0): 1}),
    ("complex:nc=2", "j-invariant-line", {(1, 0): 2}),
])
def test_covariant_table_modulo_a_proper_subcomplex_matches_the_reference(
        group, stratum, nonzero):
    spec = parse_pseudogroup(group)
    ctx = FlagContext(spec.ambient_dim, stratum_tau(spec, stratum))
    gsys = system(spec, 5)
    ref = per_cell_covariant_complex(ctx, gsys, None)
    assert all(0 < ref.cells(d, 0)[1].dim < ref.cells(d, 0)[0].dim
               for d in range(1, 5))
    want = ref.table(range(5), range(ctx.n + 1))
    assert covariant_complex(ctx, gsys, None).table(
        range(5), range(ctx.n + 1), "t").cells == want
    assert {cell: v for cell, v in want.items() if v} == nonzero


def test_covariant_table_modulo_a_proper_subcomplex_with_an_equation_file(
        capsys, tmp_path):
    h = {"1": [[1, 0], [0, 1]], "2": [[1, 0], [0, 1]], "3": [[0, 1]],
         "4": [[0, 1]], "5": [[0, 1]]}
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps({"ambient": {"m": 3, "n": 1}, "h": h}))
    assert main(["cohomology", "--table", "covariant", "--group",
                 "contact:dim=3", "--flag", "stratum=inside-contact-plane",
                 "--l", "1..4", "--h-file", str(h_path)]) == 0
    cells = json.loads(capsys.readouterr().out)["table"]["cells"]
    spec = parse_pseudogroup("contact:dim=3")
    ctx = FlagContext(3, stratum_tau(spec, "inside-contact-plane"))
    hsys = SymbolicSystem(1, 2, {
        int(l): Subspace.from_dense(TensorShape(1, int(l), 0, 2), rows)
        for l, rows in h.items()})
    want = per_cell_covariant_complex(ctx, system(spec, 5), hsys).table(
        range(1, 5), range(2))
    assert cells == {"%d,%d" % cell: v for cell, v in want.items()}
    assert {k: v for k, v in cells.items() if v} == {"1,0": 1, "2,1": 1}


def _family(grade, lowering, base_dim=2):
    """A graded family in the form spencer_complex reads, which is never
    split over its values."""
    return SimpleNamespace(base_dim=base_dim, grade=grade, lowering=lowering)


def test_engine_rejects_cells_that_are_not_differential_stable():
    # A grade that is not closed under lowering: the full grade 1 over a
    # zero grade 0.  The family's lowering table, which the engine reads
    # at (1, 0) before any rank of degree 1, refuses it, over every range
    # of form degrees.
    full = SymbolicSystem(2, 1, {}, fill="full")

    def grade(d):
        return Subspace.zero(full.grade(0).ambient) if d == 0 \
            else full.grade(d)

    def lowering(d):
        return _lowering_table(grade(d), grade(d - 1))

    for s_range in (range(3), range(1, 3), range(2, 3)):
        cx = spencer_complex(_family(grade, lowering))
        with pytest.raises(NotASubcomplex, match="not closed under lowering"):
            cx.table(range(3), s_range, "t")

    # The kernel of a restriction that the differential leaves: on the
    # scalar Koszul complex of Q^2, S(1, 0) = span(x) and S(0, 1) =
    # span(e^1), where the differential of x is e^0.  The engine's rank
    # check at (1, 0) refuses it, also when s = 0 is not read.
    def restriction(d, s, shape):
        if (d, s) == (1, 0):
            return [{1: 1}]
        return [{0: 1}] if (d, s) == (0, 1) else []

    for s_range in (range(3), range(1, 3)):
        cx = spencer_complex(full).restricted(restriction)
        with pytest.raises(NotASubcomplex, match="leaves the cells"):
            cx.table(range(3), s_range, "t")


def _not_squaring_to_zero(full, d):
    """full.lowering(d), with, at d = 2, the entry of D_0 at the basis row
    1 (the monomial x y) doubled."""
    table = full.lowering(d)
    if d != 2:
        return table
    doubled = {p: [(u, 2 * v if u == 1 else v) for u, v in pairs]
               for p, pairs in table[0].items()}
    return (doubled,) + table[1:]


def test_engine_rejects_a_differential_that_does_not_square_to_zero():
    # Clearing trusts delta^2 = 0, so the engine checks it once per degree,
    # on the images from (d, 0).  Without that check this table reads
    # [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]] and raises nothing.
    full = SymbolicSystem(2, 1, {}, fill="full")
    assert sym_basis(2, 2)[1] == (1, 1)

    def family():
        return spencer_complex(_family(full.grade, partial(
            _not_squaring_to_zero, full)))

    cx = family()
    with pytest.raises(NotASubcomplex, match="square to zero at degree 2"):
        [[cx.H(d, s) for s in range(3)] for d in range(4)]
    # A range of form degrees without 0 (and 1) still runs the check at
    # (d, 0) before any rank of degree d.
    for s_range in (range(1, 3), range(2, 3)):
        with pytest.raises(NotASubcomplex, match="square to zero"):
            family().table(range(4), s_range, "t")


def test_covariant_table_rejects_a_restricted_symbol_not_closed_under_lowering(
        monkeypatch, capsys):
    # On the lagrangian of symplectic:2n=4, lambda(g_1) is spanned by x e0,
    # x e1 + y e0 and y e1.  A lambda(g_2) spanned by x y e0, which lowers
    # along x to y e0, is not closed; h is full, so only the closure check
    # of lambda(g) can see it.
    covariants_module = importlib.import_module("spencer.covariants")
    true_image = covariants_module.image

    def not_closed(f, s=None):
        out = true_image(f, s)
        if f.codomain.sym_degree != 2:
            return out
        return Subspace.from_rows(out.ambient, [{2: 1}])

    monkeypatch.setattr(covariants_module, "image", not_closed)
    spec = parse_pseudogroup("symplectic:2n=4")
    ctx = FlagContext(4, stratum_tau(spec, "lagrangian"))
    with pytest.raises(NotASubcomplex, match="not closed under lowering"):
        covariant_complex(ctx, system(spec, 4), None).table(
            range(1, 4), range(3), "t")
    assert main(["cohomology", "--table", "covariant", "--group",
                 "symplectic:2n=4", "--flag", "stratum=lagrangian",
                 "--l", "1..3"]) == 3
    assert "not closed under lowering" in capsys.readouterr().err


def test_stationary_table_over_some_form_degrees_equals_the_full_table(
        capsys):
    # The (1, 2) cell is 4 on both planes; over --s 1..2 the lowest form
    # degree read is 1, and the (d, 0) ranks are still taken for the checks.
    for flag in ("tau=1,0,0;0,1,0", "tau=1,2,0;0,1,-1/2"):
        tables = []
        for extra in ([], ["--s", "1..2"]):
            assert main(["cohomology", "--table", "stationary", "--group",
                         "isometry:n=3", "--flag", flag, "--l", "1..4"]
                        + extra) == 0
            tables.append(json.loads(capsys.readouterr().out)
                          ["table"]["cells"])
        full, part = tables
        assert part == {k: v for k, v in full.items()
                        if k.split(",")[1] in ("1", "2")}
        assert part["1,2"] == 4


def test_full_cells_are_not_materialized(count_calls, capsys):
    # A full space builds its unit rows (through __getattr__) on first use.
    # A full lambda(g_d) inside a full h_d gives a zero quotient grade, the
    # image of a full space is that of the map, and covariants() compares
    # a full sum with a full preimage by dims, so none of them builds the
    # rows.  A full g_l is its own sum with sigma, and its stationary part
    # is sigma.
    built = count_calls(Subspace, "__getattr__")
    assert main(["cohomology", "--table", "covariant", "--group",
                 "general:m=4", "--flag", "tau=1/2,2,1/2,1;-3/4,2,1,2",
                 "--l", "1..3"]) == 0
    dmap = delta_map(TensorShape(2, 2, 1, 2))
    assert image(dmap, Subspace.full(dmap.domain)) == image(dmap)
    assert main(["covariants", "--group", "symplectic:2n=4", "--flag",
                 "stratum=lagrangian", "--l", "1..3"]) == 0
    assert main(["covariants", "--group", "general:m=4", "--flag",
                 "tau=1/2,2,1/2,1;-3/4,2,1,2", "--l", "1..3"]) == 0
    capsys.readouterr()
    assert built.total() == 0


def test_stationary_table_builds_each_cell_once(count_calls, capsys):
    # The stationary row builds no cell of its own: per (d, s) the columns
    # of its restriction on the Spencer cell, once, and per degree the
    # restriction on g_d, once.  It intersects no stationary subspace and
    # takes no plain differential: every grade has grade coordinates.
    # volume:m=3 is not full, so its row is not split over the values.
    covariants_module = importlib.import_module("spencer.covariants")
    symbolic = importlib.import_module("spencer.symbolic")
    built = count_calls(covariants_module._RestrictedColumns, "__init__",
                        key=lambda columns, functionals, forms, shape:
                        (shape.sym_degree, shape.ext_degree))
    restrictions = count_calls(FlagContext, "integral_restriction",
                               key=lambda ctx, l: l)
    stationary = count_calls(covariants_module, "stationary_subspace",
                             key=lambda ctx, g_l: g_l.ambient.sym_degree)
    plain = count_calls(symbolic, "delta_map",
                        key=lambda shape: shape.value_dim)
    assert main(["cohomology", "--table", "stationary", "--group",
                 "volume:m=3", "--flag", "tau=1,0,0;0,1,0",
                 "--l", "1..3"]) == 0
    capsys.readouterr()
    assert built and set(built.values()) == {1}
    assert sorted(restrictions) == [0, 1, 2, 3, 4]
    assert set(restrictions.values()) == {1}
    assert not stationary
    assert not plain

    # The stationary-tau table is the framed complex under the kernel of
    # lambda_d (x) id, so it takes the same counts on its cells and grades.
    built.clear()
    restrictions.clear()
    gsys = system(parse_pseudogroup("volume:m=3"), 4)
    cx = tau_form_complex(axis_flag(3, 2), gsys, stationary=True)
    for d in range(4):
        for s in range(3):
            cx.H(d, s)
    assert built and set(built.values()) == {1}
    assert sorted(restrictions) == [0, 1, 2, 3, 4]
    assert set(restrictions.values()) == {1}
    assert not stationary
    assert not plain


def test_stationary_table_checks_closure_once_per_degree(count_calls,
                                                        capsys):
    covariants_module = importlib.import_module("spencer.covariants")
    argv = ["cohomology", "--table", "stationary", "--group", "volume:m=3",
            "--flag", "tau=1,0,0;0,1,0", "--l", "1..3"]
    # The closure of the stationary cells is one rank check per degree.
    # The grades of volume:m=3 are checked closed when the system is
    # built, so the table itself makes no membership test.
    gsys = system(parse_pseudogroup("volume:m=3"), 4)
    members = count_calls(Subspace, "contains_vector")
    checks = count_calls(CochainComplex, "_check_restriction",
                         key=lambda cx, d, *rest: d)
    stationary_row_complex(axis_flag(3, 2), gsys).table(
        range(1, 4), range(3), "stationary")
    assert members.total() == 0
    assert checks == {1: 1, 2: 1, 3: 1, 4: 1}
    checks.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert checks == {1: 1, 2: 1, 3: 1, 4: 1}

    # Without s = 0 the table reads degrees 1..4 (the (d + 1, 0) cells feed
    # the incoming ranks at s = 1), builds the restriction on each (d, 0)
    # cell once, and checks each of those degrees once.
    checks.clear()
    built = count_calls(covariants_module._RestrictedColumns, "__init__",
                        key=lambda columns, functionals, forms, shape:
                        (shape.sym_degree, shape.ext_degree))
    assert main(argv + ["--s", "1..1"]) == 0
    capsys.readouterr()
    assert set(built.values()) == {1}
    assert sorted(k for k in built if k[1] == 0) == [(d, 0)
                                                    for d in range(1, 5)]
    assert checks == {1: 1, 2: 1, 3: 1, 4: 1}


def test_transversality_scan_builds_one_kernel_per_order(count_calls,
                                                         capsys):
    # covariants() builds one kernel per order, 1..4; the tau-form tables
    # read the restriction's functionals on g_d, not its kernel.
    covariants_module = importlib.import_module("spencer.covariants")
    kernels = count_calls(covariants_module, "restriction_kernel",
                          key=lambda ctx, l: l)
    assert main(["transversality", "--group", "complex:nc=3", "--flag",
                 "stratum=totally-real", "--l", "1..4"]) == 0
    capsys.readouterr()
    assert kernels == {1: 1, 2: 1, 3: 1, 4: 1}


def test_transversality_scan_builds_each_framed_map_once(count_calls,
                                                       capsys):
    # The stationary-tau and restricted complexes of the scan are the
    # flag's one framed complex, the first under a restriction, so they
    # share its maps: per degree 1..4 one framed lowering table (one
    # combination per row of tau's frame), and 9 distinct Koszul maps, each
    # built once.
    covariants_module = importlib.import_module("spencer.covariants")
    symbolic = importlib.import_module("spencer.symbolic")
    combined = count_calls(covariants_module, "_along",
                           key=lambda t, table: (tuple(t.items()), id(table)))
    koszul = count_calls(symbolic._KoszulMap, "__init__",
                         key=lambda delta, domain, codomain, *rest:
                         (domain, codomain))
    assert main(["transversality", "--group", "complex:nc=3", "--flag",
                 "stratum=totally-real", "--l", "1..4"]) == 0
    capsys.readouterr()
    assert len({table for _, table in combined}) == 4
    assert len(combined) == 12 and combined.total() == 12
    assert len(koszul) == 9 and koszul.total() == 9


def test_framed_lowering_tables_are_integers_on_a_rational_flag(
        monkeypatch):
    # The tau-form complexes lower along tau_space's primitive integer
    # rows, so their tables and delta^2 rows hold ints even where tau has
    # Fractions; a basis change of tau leaves the tables as they are
    # along tau, the reference's given rows.
    symbolic = importlib.import_module("spencer.symbolic")
    maps = []
    init = symbolic._KoszulMap.__init__

    def kept(delta, *args):
        init(delta, *args)
        maps.append(delta)

    monkeypatch.setattr(symbolic._KoszulMap, "__init__", kept)
    ctx = FlagContext(4, RATIONAL_PLANE)
    assert any(type(v) is Fraction for row in ctx.tau for v in row)
    gsys = system(parse_pseudogroup("volume:m=4"), 4)
    for grade, stationary in ((gsys.grade, False),
                              (stationary_grades(ctx, gsys), True)):
        assert tau_form_complex(ctx, gsys, stationary).table(
            range(4), range(3), "t").cells == per_cell_tau_form_complex(
                ctx, grade).table(range(4), range(3))
    assert maps
    assert all(type(v) is int for delta in maps for low in delta._table
               for pairs in low.values() for _, v in pairs)
    assert all(type(v) is int for delta in maps for row in delta.rows
               for v in row.values())


# Catalog systems and flags for the stationary-type families below; the
# flags of dimension 2 give tau-form tables whose top is above 1.
FAMILY_CASES = [
    ("general:m=2", [[1, 0]]),
    ("symplectic:2n=2", [[1, 2]]),
    ("complex:nc=1", [[1, 0]]),
    ("general:m=3", [[1, 0, 0], [0, 1, 0]]),
    ("general:m=3", [[1, Fraction(1, 2), 0]]),
    ("volume:m=3", [[1, 0, -1], [0, 1, 2]]),
    ("contact:dim=3", [[1, 0, 0], [0, 0, 1]]),
    ("isometry:n=3", [[0, 1, 0], [0, 0, 1]]),
]


def test_closure_once_per_degree_matches_the_per_cell_check():
    # The stationary grades stat_d are replaced by subspaces S_d of g_d:
    # random ones (most often not closed), the true stationary parts, g_d
    # or zero.  The stationary row and the stationary-tau complex read S_d
    # as the kernel of their restriction on g_d (ctx._restrictions), here
    # g_d -> g_d / S_d through quotient_coords (the true restriction for
    # the true stationary parts), and the reference builds its ambient
    # cells from S_d.  The engine checks closure on the (d, 0) cells only,
    # by one rank check per degree; the reference checks every cell.  Over
    # all form degrees both give the same table or both raise.  Over a
    # drawn range of form degrees the engine also checks the (d, 0) cell of
    # each degree it reads, which the reference is given as extra ranks.
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    covariants_module = importlib.import_module("spencer.covariants")
    outcomes = collections.Counter()

    def subspace_of(data, g, ctx):
        """A drawn S_d, and whether it is the true stationary part."""
        kind = data.draw(st.sampled_from(
            ["random", "random", "stationary", "grade", "zero"]))
        if kind == "stationary":
            return stationary_subspace(ctx, g), True
        if kind == "grade":
            return g, False
        if kind == "zero" or g.dim == 0:
            return Subspace.zero(g.ambient), False
        combos = []
        for _ in range(data.draw(st.integers(0, 3))):
            combo = {}
            for _ in range(data.draw(st.integers(1, 3))):
                row = g.int_rows[data.draw(st.integers(0, g.dim - 1))]
                coef = data.draw(st.integers(-2, 2))
                for c, v in row.items():
                    combo[c] = combo.get(c, 0) + coef * v
            combos.append(combo)
        return Subspace.from_rows(g.ambient, combos), False

    def outcome(table):
        try:
            return table()
        except NotASubcomplex:
            return "not closed"

    @hyp.settings(max_examples=80, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(st.data())
    def check(data):
        group, tau = data.draw(st.sampled_from(FAMILY_CASES))
        spec = parse_pseudogroup(group)
        ctx = FlagContext(spec.ambient_dim, tau)
        gsys = system(spec, 5)
        drawn = {}
        for d in range(5):
            g = gsys.grade(d)
            S, true = subspace_of(data, g, ctx)
            drawn[d] = S
            if not true:
                # The restriction on g_d whose kernel is S: per basis row of
                # g_d, its class in g_d / S.
                ctx._restrictions[(gsys, d)] = [S.quotient_coords(row)
                                                for row in g.int_rows]
        if data.draw(st.booleans()):
            top = ctx.m

            def engine():
                # g's Spencer complex under the drawn restrictions, not the
                # value split that stationary_row_complex takes on a full g.
                return spencer_complex(_family(
                    gsys.grade, gsys.lowering, gsys.base_dim)).restricted(
                        covariants_module._restrictions(
                            ctx, gsys, ctx.form_restriction))

            def reference():
                return per_cell_stationary_complex(ctx, gsys,
                                                   drawn.__getitem__)
        else:
            top = ctx.n

            def engine():
                # The framed complex under the drawn restrictions, not the
                # value split that tau_form_complex takes on a full g.
                return covariants_module._framed(ctx, gsys).restricted(
                    covariants_module._restrictions(ctx, gsys, partial(
                        covariants_module._unit_forms, ctx.n)))

            def reference():
                return per_cell_tau_form_complex(ctx, drawn.__getitem__)

        d_range = range(4)
        every_s = range(top + 1)
        want = outcome(lambda: reference().table(d_range, every_s))
        assert outcome(lambda: engine().table(d_range, every_s, "t").cells) \
            == want
        outcomes[want == "not closed"] += 1

        s_lo = data.draw(st.integers(0, top))
        s_range = range(s_lo, data.draw(st.integers(s_lo, top)) + 1)
        reads = sorted({d for d in d_range for s in s_range
                        if d >= 1 and s < top}
                       | {d + 1 for d in d_range for s in s_range if s >= 1})

        def checked_reference():
            ref = reference()
            for d in reads:
                ref.rank(d, 0)
            return ref.table(d_range, s_range)

        assert outcome(lambda: engine().table(d_range, s_range, "t").cells) \
            == outcome(checked_reference)

    check()
    # Both closed and non-closed families were drawn.
    assert outcomes[True] and outcomes[False]


# ------------------------------------------------------- stationary-row cells

def reference_stationary_row_space(ctx, gsys, l, s):
    """The stationary-row cell as one elimination over the sum of rows:
    g_d (x) (annihilator wedge Lambda^(s-1)) plus stat_d (x) Lambda^s."""
    m, d = ctx.m, l - s
    shape = TensorShape(m, max(d, 0), s, m)
    if d < 0 or s > m:
        return Subspace.zero(shape)
    g = gsys.grade(d)
    rows = []
    if s >= 1:
        wpos = {J: i for i, J in enumerate(wedge_basis(m, s))}
        wedge_rows = []
        for alpha in ctx.ann.rows:
            for L in wedge_basis(m, s - 1):
                # e^j ^ e^L: move e^j past the indices of L below j.
                wedge_rows.append({
                    wpos[tuple(sorted(L + (j,)))]:
                        (-1) ** sum(i < j for i in L) * coef
                    for j, coef in alpha.items() if j not in L})
        rows += tensor_rows_with_wedge(g.rows, g.ambient, wedge_rows, shape)
    rows += tensor_all_forms(stationary_subspace(ctx, g), shape).rows
    return Subspace.from_rows(shape, rows)


STATIONARY_CASES = [
    pytest.param("general:m=3", [[1, 0, 0]], id="general-axis-line"),
    pytest.param("general:m=4", RATIONAL_PLANE, id="general-rational-plane"),
    pytest.param("volume:m=3", [[1, 0, 0], [0, 1, 0]], id="volume-axis-plane"),
    pytest.param("volume:m=4", RATIONAL_3_PLANE, id="volume-rational-3-plane"),
    pytest.param("complex:nc=2", "totally-real", id="complex-totally-real"),
    pytest.param("complex:nc=2", RATIONAL_PLANE, id="complex-rational-plane"),
    pytest.param("symplectic:2n=4", "lagrangian", id="symplectic-lagrangian"),
    pytest.param("symplectic:2n=4", RATIONAL_LAGRANGIAN,
                 id="symplectic-rational-lagrangian"),
    pytest.param("contact:dim=3", [[Fraction(1, 2), Fraction(-2, 3), 1]],
                 id="contact-rational-line"),
]


@pytest.mark.parametrize("group, flag", STATIONARY_CASES)
def test_stationary_row_space_matches_the_sum_of_rows(group, flag):
    # The reference cells, the direct sum g_d (x) W + stat_d (x) W^c only
    # back-substituted, are the same canonical Subspaces as the eliminated
    # sum of rows.
    spec = parse_pseudogroup(group)
    tau = stratum_tau(spec, flag) if isinstance(flag, str) else flag
    ctx = FlagContext(spec.ambient_dim, tau)
    gsys = system(spec, 3)
    for d in range(4):
        for s in range(ctx.m + 2):
            want = reference_stationary_row_space(ctx, gsys, d + s, s)
            assert stationary_row_space(ctx, gsys, d + s, s) == want


def test_stationary_row_space_rejects_rows_with_one_leading_column(
        monkeypatch):
    # The reference cells, like restriction_kernel, go through
    # _canonical_sum, which back-substitutes rows that lead at distinct
    # columns and refuses a second row at a leading column.
    per_cell = importlib.import_module("per_cell")

    def twice(*args):
        rows = tensor_rows_with_wedge(*args)
        return rows + rows

    monkeypatch.setattr(per_cell, "tensor_rows_with_wedge", twice)
    gsys = system(parse_pseudogroup("general:m=3"), 2)
    with pytest.raises(ConsistencyCheckFailed, match="two stationary-row"):
        stationary_row_space(axis_flag(3, 1), gsys, 2, 1)


# ------------------------------------------------ tables against the reference

TABLE_PLANE = [[1, 2, 0], [0, 1, Fraction(-1, 2)]]


# Named strata and rational planes, among them the finite-type isometry
# groups, where lambda(g_d) is zero from d = 2 on but not at d = 1.
TABLE_FLAGS = [
    ("symplectic:2n=4", "lagrangian"),
    ("symplectic:2n=4", "omega-nondegenerate"),
    ("complex:nc=2", "totally-real"),
    ("complex:nc=2", "j-invariant-line"),
    ("contact:dim=3", "transversal-to-contact-plane"),
    ("contact:dim=3", "inside-contact-plane"),
    ("general:m=4", RATIONAL_PLANE),
    ("general:m=4", RATIONAL_3_PLANE),
    ("volume:m=4", RATIONAL_PLANE),
    ("volume:m=4", RATIONAL_3_PLANE),
    ("isometry:n=3", TABLE_PLANE),
    ("isometry:n=4", RATIONAL_3_PLANE),
    ("symplectic:2n=4", RATIONAL_PLANE),
    ("symplectic:2n=4", RATIONAL_3_PLANE),
    ("complex:nc=2", RATIONAL_PLANE),
    ("complex:nc=2", RATIONAL_3_PLANE),
    ("contact:dim=3", TABLE_PLANE),
]


def flag_context(group, flag):
    """The spec and FlagContext of a TABLE_FLAGS entry."""
    spec = parse_pseudogroup(group)
    tau = stratum_tau(spec, flag) if isinstance(flag, str) else flag
    return spec, FlagContext(spec.ambient_dim, tau)


@pytest.mark.parametrize("group, flag", TABLE_FLAGS)
def test_stationary_table_matches_the_per_cell_reference(group, flag):
    # The stationary row read off g's Spencer complex through its
    # restriction equals the cohomology of the reference's ambient cells,
    # closure checked on every cell.
    spec, ctx = flag_context(group, flag)
    gsys = system(spec, 4)
    d_range, s_range = range(4), range(ctx.m + 1)
    want = per_cell_stationary_complex(
        flag_context(group, flag)[1], gsys).table(d_range, s_range)
    assert stationary_row_complex(ctx, gsys).table(
        d_range, s_range, "t").cells == want
    assert any(want.values())


def general_planes(m):
    """The axis 2-plane and a rational 2-plane of Q^m, m >= 3, and a
    rational 3-plane, or on m = 3 a rational line."""
    r2 = [[Fraction(1, 2), 2] + [Fraction(k + 1, 3) for k in range(m - 2)],
          [Fraction(-3, 4), 2] + [Fraction(2 - k, 5) for k in range(m - 2)]]
    r3 = (r2 + [[Fraction(-3, 4), 2] + [Fraction(1, 2)] * (m - 3) + [-1]]
          if m > 3 else [[1, Fraction(1, 2), 0]])
    return [axis_flag(m, 2).tau, r2, r3]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_split_stationary_table_of_a_full_system_matches_the_reference(m):
    # A full system's row is n copies of the scalar full Spencer complex
    # plus r copies of its kernel of the restriction; on general:m it is n
    # at (0, 0) and zero elsewhere, so n and r swapped show at (0, 0).
    gsys = system(parse_pseudogroup("general:m=%d" % m), 4)
    d_range, s_range = range(4), range(m + 1)
    for tau in general_planes(m):
        want = per_cell_stationary_complex(FlagContext(m, tau),
                                           gsys).table(d_range, s_range)
        assert stationary_row_complex(FlagContext(m, tau), gsys).table(
            d_range, s_range, "t").cells == want
        assert want[(0, 0)] == len(tau)


def test_full_stationary_table_takes_one_value_coordinate(count_calls,
                                                          capsys):
    # The row of general:m=3 is split over its values: every
    # restriction's columns are on one value coordinate, each cell's
    # columns are built once, and the scalar grades take Koszul columns,
    # so no plain differential is built.  The two parts share the scalar
    # differential: each Koszul map is built once, and delta^2 = 0 is
    # checked once per degree.
    covariants_module = importlib.import_module("spencer.covariants")
    symbolic = importlib.import_module("spencer.symbolic")
    built = count_calls(covariants_module._RestrictedColumns, "__init__",
                        key=lambda columns, functionals, forms, shape:
                        (shape.sym_degree, shape.ext_degree,
                         shape.value_dim))
    plain = count_calls(symbolic, "delta_map",
                        key=lambda shape: shape.value_dim)
    koszul = count_calls(symbolic._KoszulMap, "__init__",
                         key=lambda delta, domain, *rest:
                         (domain.sym_degree, domain.ext_degree))
    squares = count_calls(CochainComplex, "_check_square",
                          key=lambda cx, d, C: d)
    assert main(["cohomology", "--table", "stationary", "--group",
                 "general:m=3", "--flag", "tau=1,0,0;0,1,0",
                 "--l", "1..3"]) == 0
    capsys.readouterr()
    assert built and set(built.values()) == {1}
    assert {value_dim for _, _, value_dim in built} == {1}
    assert not plain
    assert koszul and set(koszul.values()) == {1}
    assert squares and set(squares.values()) == {1}


def projective_system(m):
    """The projective symbol: g_1 = gl(V), g_2 = {(alpha . x) x}, and its
    prolongations (zero from g_3 on)."""
    shp = TensorShape(m, 2, 0, m)
    rows = []
    for a in range(m):
        row = {}
        for b in range(m):
            mono = [0] * m
            mono[a] += 1
            mono[b] += 1
            row[shp.index(shp.sym_pos(tuple(mono)), 0, b)] = 1
        rows.append(row)
    return SymbolicSystem(m, m, {1: Subspace.full(TensorShape(m, 1, 0, m)),
                                 2: Subspace.from_rows(shp, rows)})


@pytest.mark.parametrize("m, tau", [
    (2, [[1, 0]]),
    (2, [[Fraction(1, 2), Fraction(-3, 4)]]),
    (3, [[1, 0, 0]]),
    (3, [[1, Fraction(1, 2), 0]]),
    (3, [[1, 0, 0], [0, 1, 0]]),
    (3, TABLE_PLANE),
])
def test_projective_stationary_table_matches_the_reference(m, tau):
    # Full m-valued grades below a grade that is not full: the row is not
    # split, and its full grades take grade coordinates under the
    # restriction.
    gsys = projective_system(m)
    assert [gsys.dim(d) for d in range(4)] == [m, m * m, m, 0]
    d_range, s_range = range(5), range(m + 1)
    want = per_cell_stationary_complex(FlagContext(m, tau),
                                       gsys).table(d_range, s_range)
    got = stationary_row_complex(FlagContext(m, tau), gsys).table(
        d_range, s_range, "t").cells
    assert got == want
    if m == 3 and tau == [[1, 0, 0], [0, 1, 0]]:
        assert (got[(1, 1)], got[(1, 2)], got[(2, 3)]) == (12, 13, 3)


@pytest.mark.parametrize("group, flag", TABLE_FLAGS)
def test_covariant_table_matches_the_per_cell_reference(group, flag):
    # The Koszul complex of h/lambda(g) equals the reference's cells h_d
    # (x) Lambda^s tau* modulo lambda(g_d) (x) Lambda^s tau*.  On the
    # isometry groups a quotient grade is full over one that is not, so
    # it must not take the monomial coordinates of a full Spencer grade.
    spec, ctx = flag_context(group, flag)
    gsys = system(spec, 4)
    d_range, s_range = range(5), range(ctx.n + 1)
    want = per_cell_covariant_complex(ctx, gsys, None).table(d_range, s_range)
    assert covariant_complex(ctx, gsys, None).table(
        d_range, s_range, "t").cells == want


def assert_tau_form_tables_match_the_reference(ctx, gsys, d_range):
    """The restricted and stationary-tau tables of the engine equal those
    of the reference's ambient cells along the given rows of tau; returns
    them."""
    s_range = range(ctx.n + 1)
    tables = []
    for stationary, grade in ((False, gsys.grade),
                              (True, stationary_grades(ctx, gsys))):
        want = per_cell_tau_form_complex(ctx, grade).table(d_range, s_range)
        assert tau_form_complex(ctx, gsys, stationary).table(
            d_range, s_range, "t").cells == want
        tables.append(want)
    return tables


@pytest.mark.parametrize("group, flag", TABLE_FLAGS)
def test_tau_form_tables_match_the_per_cell_reference(group, flag):
    # The framed Koszul complex of g, and its kernel of lambda_d (x) id,
    # equal the reference's ambient cells g_d (x) Lambda^s tau* and
    # stat_d (x) Lambda^s tau* under restrict_delta, closure checked on
    # every cell; on the isometry groups g_d is zero from d = 2 on.
    spec, ctx = flag_context(group, flag)
    restricted, stationary = assert_tau_form_tables_match_the_reference(
        ctx, system(spec, 4), range(4))
    assert any(restricted.values()) and any(stationary.values())


@pytest.mark.parametrize("m", [3, 4, 5])
def test_split_tau_form_tables_of_a_full_system_match_the_reference(m):
    # A full system's restricted table is m copies of the scalar framed
    # complex, and its stationary-tau table n copies of it plus r copies
    # of its kernel of lambda_sym (x) id.  In coordinates y along tau and
    # z across it the scalar complex is S(z) times the Koszul complex in
    # y, so its cohomology is S^d(z) at (d, 0), and its kernel's is the
    # same but at (0, 0), where it is zero: n and r swapped show there.
    gsys = system(parse_pseudogroup("general:m=%d" % m), 4)
    for tau in general_planes(m):
        ctx = FlagContext(m, tau)
        restricted, stationary = assert_tau_form_tables_match_the_reference(
            ctx, gsys, range(4))
        normal = [math.comb(ctx.r + d - 1, d) for d in range(4)]
        assert [restricted[(d, 0)] for d in range(4)] == [m * k
                                                          for k in normal]
        assert [stationary[(d, 0)] for d in range(4)] == [
            m * k - (ctx.r if d == 0 else 0) for d, k in enumerate(normal)]
        assert not any(v for (d, s), v in restricted.items() if s)
        assert not any(v for (d, s), v in stationary.items() if s)


@pytest.mark.parametrize("group", ["symplectic:2n=6", "complex:nc=3"])
def test_tau_form_tables_on_a_generic_3_plane_match_the_reference(group):
    assert_tau_form_tables_match_the_reference(
        FlagContext(6, GENERIC_3_PLANE), system(parse_pseudogroup(group), 3),
        range(3))


def test_zero_grades_take_zero_cells(count_calls):
    # From d = 2 on the grades of isometry:n=3 are zero, and so are their
    # cells: no table builds an ambient differential on them, nor checks
    # delta^2 from them.
    spec, ctx = flag_context("isometry:n=3", TABLE_PLANE)
    gsys = system(spec, 5)
    assert [gsys.dim(d) for d in range(8)] == [3, 3, 0, 0, 0, 0, 0, 0]
    symbolic = importlib.import_module("spencer.symbolic")
    plain = count_calls(symbolic, "delta_map")
    squares = count_calls(CochainComplex, "_check_square",
                          key=lambda cx, d, C: d)
    d_range, s_range = range(1, 6), range(4)
    spencer_complex(gsys).table(d_range, s_range, "t")
    stationary_row_complex(ctx, gsys).table(d_range, s_range, "t")
    for stationary in (False, True):
        tau_form_complex(ctx, gsys, stationary).table(d_range, s_range, "t")
    assert plain.total() == 0
    assert not squares


# ------------------------------------------------- invariance under G_0

def integral(A):
    """A positive multiple of the rational matrix A with integer entries."""
    scale = math.lcm(*(Fraction(v).denominator for row in A for v in row))
    return [[int(v * scale) for v in row] for row in A]


def inverse(A):
    n = len(A)
    columns = [solve(A, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[columns[j][i] for j in range(n)] for i in range(n)]


def pushed(A, grade):
    """A . g_d for a grade g_d of S^d V* (x) V: a field xi goes to
    x -> A xi(A^-1 x), so x^M (x) e_b goes to (A^-1 x)^M (x) A e_b.  A and
    A^-1 are scaled to integers, which scales the whole grade by one
    positive number and leaves its span."""
    shp = grade.ambient
    m = shp.base_dim
    A_int, B = integral(A), integral(inverse(A))
    forms = [{i: B[j][i] for i in range(m) if B[j][i]} for j in range(m)]
    images = [_substituted(mono, forms, m) for mono in shp.sym_list()]
    rows = []
    for row in grade.int_rows:
        out = {}
        for flat, v in row.items():
            sym_i, _, b = shp.unpack(flat)
            for mono, pv in images[sym_i].items():
                for c in range(m):
                    if A_int[c][b]:
                        key = shp.index(shp.sym_pos(mono), 0, c)
                        out[key] = out.get(key, 0) + v * pv * A_int[c][b]
        rows.append(out)
    return Subspace.from_rows(shp, rows)


def preserves(A, gsys, d_max):
    """Whether A . g_d = g_d exactly for d = 0..d_max."""
    return all(pushed(A, gsys.grade(d)) == gsys.grade(d)
               for d in range(d_max + 1))


def flag_tables(m, tau, gsys):
    """The stationary, stationary-tau and restricted tables of a flag."""
    ctx = FlagContext(m, tau)
    return (stationary_row_complex(ctx, gsys).table(range(4), range(m + 1),
                                                    "t"),
            tau_form_complex(ctx, gsys, stationary=True).table(
                range(4), range(len(tau) + 1), "t"),
            tau_form_complex(ctx, gsys, stationary=False).table(
                range(4), range(len(tau) + 1), "t"))


def moved(A, tau):
    return [[sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]
            for v in tau]


def transvection(v, c):
    """x -> x + c omega(v, x) v, omega = sum dx_i ^ dx_(N+i)."""
    N = len(v) // 2
    w = [-v[N + k] for k in range(N)] + [v[k] for k in range(N)]
    return [[int(r == k) + c * v[r] * w[k] for k in range(2 * N)]
            for r in range(2 * N)]


def complex_real_form(P, Q):
    """The real form [[P, -Q], [Q, P]] of P + iQ on (x, y), z = x + iy."""
    return ([p + [-q for q in qr] for p, qr in zip(P, Q)]
            + [q + p for p, q in zip(P, Q)])


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def test_flag_tables_are_invariant_under_the_linear_isotropy():
    # The stationary, stationary-tau and restricted tables of a flag
    # depend only on its orbit under G_0.  Each drawn A is first checked to
    # preserve g_d exactly at every degree the tables read.
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    small = st.integers(-2, 2)
    cases = {"symplectic:2n=4": ["lagrangian", "omega-nondegenerate"],
             "complex:nc=2": ["totally-real", "j-invariant-line"]}

    @hyp.settings(max_examples=12, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(st.data())
    def check(data):
        group = data.draw(st.sampled_from(sorted(cases)))
        spec = parse_pseudogroup(group)
        gsys = system(spec, 5)
        if data.draw(st.booleans()):
            tau = stratum_tau(spec, data.draw(st.sampled_from(cases[group])))
        else:
            tau = [[1, 0] + [data.draw(small) for _ in range(2)],
                   [0, 1] + [Fraction(data.draw(small), data.draw(
                       st.integers(1, 3))) for _ in range(2)]]
        if group == "symplectic:2n=4":
            A = [[int(i == j) for j in range(4)] for i in range(4)]
            for _ in range(data.draw(st.integers(1, 3))):
                v = [data.draw(small) for _ in range(4)]
                c = Fraction(data.draw(st.sampled_from([-2, -1, 1, 3])),
                             data.draw(st.integers(1, 3)))
                A = matmul(transvection(v, c), A)
        else:
            P = [[data.draw(small) for _ in range(2)] for _ in range(2)]
            Q = [[data.draw(small) for _ in range(2)] for _ in range(2)]
            A = complex_real_form(P, Q)
            hyp.assume(det(A) != 0)
        # The tables below read the grades of degree 0..4.
        assert preserves(A, gsys, 4)
        assert flag_tables(4, moved(A, tau), gsys) == flag_tables(4, tau,
                                                                  gsys)

    check()

    # A map outside G_0 is refused by the check, and moving the flag by it
    # changes the tables: the swap of x_1 and x_2 takes the Lagrangian plane
    # to a symplectic one and the totally real plane to a complex line.
    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    for group, stratum in (("symplectic:2n=4", "lagrangian"),
                           ("complex:nc=2", "totally-real")):
        spec = parse_pseudogroup(group)
        gsys = system(spec, 5)
        tau = stratum_tau(spec, stratum)
        assert not preserves(swap, gsys, 4)
        assert flag_tables(4, moved(swap, tau), gsys) != flag_tables(4, tau,
                                                                     gsys)


def elementary(m, i, j, c):
    """The integer elementary matrix I + c e_i e_j^T, i != j."""
    return [[int(r == k) + (c if (r, k) == (i, j) else 0) for k in range(m)]
            for r in range(m)]


def frame_outputs(group, tau, capsys):
    """The restricted and stationary-tau tables of the flag tau as JSON
    text, and the transversality scan's CLI output without its config."""
    spec = parse_pseudogroup(group)
    ctx = FlagContext(spec.ambient_dim, tau)
    gsys = system(spec, 3)
    outputs = [json.dumps(tau_form_complex(ctx, gsys, stationary).table(
        range(3), range(ctx.n + 1), "t").to_jsonable())
        for stationary in (False, True)]
    flag = "tau=" + ";".join(",".join(str(Fraction(v)) for v in row)
                             for row in tau)
    assert main(["transversality", "--group", group, "--flag", flag,
                 "--l", "1..3"]) == 0
    scan = json.loads(capsys.readouterr().out)
    del scan["config"]
    return outputs + [json.dumps(scan, sort_keys=True)]


RATIONAL_CONTACT_PLANE = [[Fraction(1, 2), 2, 0, 1, Fraction(-1, 3)],
                          [0, 1, Fraction(3, 2), -1, 2]]


def test_flag_outputs_do_not_depend_on_the_frame(capsys):
    # The tau-form tables lower along tau_space's integer frame.  Moving
    # the axis plane by a product of integer elementary matrices, which
    # preserves the symbols of volume:m=4 and general:m=4 (checked), gives
    # a plane whose frame has entries other than 0 and 1, with the same
    # outputs.  So does giving a rational plane in a second basis, an
    # invertible integer recombination of its rows.
    A = [[int(i == j) for j in range(4)] for i in range(4)]
    for i, j, c in ((0, 2, 2), (3, 1, -1), (1, 3, 3), (2, 0, -2)):
        A = matmul(elementary(4, i, j, c), A)
    axis = axis_flag(4, 2).tau
    for group in ("volume:m=4", "general:m=4"):
        assert preserves(A, system(parse_pseudogroup(group), 4), 4)
        assert frame_outputs(group, moved(A, axis), capsys) == \
            frame_outputs(group, axis, capsys)
    recombined = [[2, 1], [1, 1]]
    for group, tau in (("symplectic:2n=4", RATIONAL_PLANE),
                       ("contact:dim=5", RATIONAL_CONTACT_PLANE),
                       ("volume:m=4", RATIONAL_PLANE)):
        assert frame_outputs(group, matmul(recombined, tau), capsys) == \
            frame_outputs(group, tau, capsys)
