"""Polynomial boundary complex: delta calculus, cohomology, prolongation."""

import importlib
import random
from fractions import Fraction

import pytest

from per_cell import PerCellComplex, restrict_delta
from spencer.catalog import parse_pseudogroup, symbol, system
from spencer.cli import main
from spencer.errors import (MissingGrade, NotASubcomplex, ZeroVector,
                            DegreeUnderflow, ShapeMismatch)
from spencer.exactla import TensorShape, Subspace, contains, tensor_all_forms
from spencer.symbolic import (
    delta_map, prolong, SymbolicSystem,
    spencer_H, cell_dim, spencer_complex, spencer_table,
    char_fiber, annihilator, noncharacteristic_obstruction,
    strongly_noncharacteristic, _substituted,
)


def lower_mono(mono, i):
    out = list(mono)
    out[i] -= 1
    return tuple(out)


def partial(shape, vec, i):
    """d/dx_i on a flat vector of shape, landing one symmetric degree down."""
    lower = TensorShape(shape.base_dim, shape.sym_degree - 1, shape.ext_degree,
                        shape.value_dim, shape.ext_dim)
    out = {}
    for flat, c in vec.items():
        s, w, v = shape.unpack(flat)
        mono = shape.sym_list()[s]
        if mono[i] == 0:
            continue
        tgt = lower.index(lower.sym_pos(lower_mono(mono, i)), w, v)
        out[tgt] = out.get(tgt, Fraction(0)) + Fraction(mono[i]) * Fraction(c)
    return {k: v for k, v in out.items() if v}


def so_subspace(n):
    shp = TensorShape(n, 1, 0, n)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            rows.append({shp.index(i, 0, j): Fraction(1),
                         shp.index(j, 0, i): Fraction(-1)})
    return Subspace.from_rows(shp, rows)


def random_subspace(rng, shape, count):
    rows = []
    for _ in range(count):
        row = {}
        for j in range(shape.dim):
            if rng.random() < 0.4:
                row[j] = Fraction(rng.randint(-4, 4))
        rows.append(row)
    return Subspace.from_rows(shape, rows)


# ---------------------------------------------------------------- delta

def test_delta_squares_to_zero():
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            for e in range(0, n - 1):
                for w in (1, 2):
                    shp = TensorShape(n, d, e, w)
                    mid = TensorShape(n, d - 1, e + 1, w)
                    dd = delta_map(shp).compose(delta_map(mid))
                    assert all(not row for row in dd.rows), (n, d, e, w)


def test_delta_explicit_first_degree():
    dm = delta_map(TensorShape(2, 1, 0, 1))
    assert dm.rows == ({0: Fraction(1)}, {1: Fraction(1)})


def test_delta_carries_monomial_multiplicity():
    # first entry of S^2 in two variables is the square of the first variable
    dm = delta_map(TensorShape(2, 2, 0, 1))
    assert dm.rows[0] == {0: Fraction(2)}
    assert all(type(v) is int for row in dm.rows for v in row.values())


def test_delta_injective_on_zero_forms():
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            shp = TensorShape(n, d, 0, 1)
            dm = delta_map(shp)
            from spencer.exactla import kernel
            assert kernel(dm).dim == 0


def test_full_symbol_rows_are_acyclic():
    # quick version; the acceptance suite runs the wider sweep
    for m in (1, 2, 3):
        for w in (1, 2):
            sysm = SymbolicSystem(m, w, {}, fill="full")
            for i in range(1, 5):
                for j in range(0, m + 1):
                    assert spencer_H(sysm, i, j) == 0, (m, w, i, j)


def test_constants_survive_at_corner():
    sysm = SymbolicSystem(2, 1, {}, fill="full")
    assert spencer_H(sysm, 0, 0) == 1


def test_restricted_delta_matches_full_on_full_flag():
    shapes = [TensorShape(m, d, s, w) for m in (2, 3, 4) for d in (1, 2, 3)
              for s in range(m + 1) for w in (1, 2, 3)]
    for shp in shapes:
        m = shp.base_dim
        tau = [[1 if j == i else 0 for j in range(m)] for i in range(m)]
        full = delta_map(shp)
        rest = restrict_delta(tau, shp)
        assert rest.codomain == full.codomain
        # Entry for entry, in the same order, and integer like delta_map's.
        assert [list(r.items()) for r in rest.rows] == \
            [list(r.items()) for r in full.rows]
        assert all(type(v) is int for r in rest.rows for v in r.values())


def test_differentials_refuse_bad_shapes():
    tau = [[1, 0, 0], [0, 1, 0]]
    with pytest.raises(ShapeMismatch):
        delta_map(TensorShape(3, 1, 0, 1, ext_dim=2))
    with pytest.raises(ShapeMismatch):
        restrict_delta(tau, TensorShape(3, 1, 0, 1))
    with pytest.raises(DegreeUnderflow):
        delta_map(TensorShape(3, 0, 1, 1))
    with pytest.raises(DegreeUnderflow):
        restrict_delta(tau, TensorShape(3, 0, 1, 1, ext_dim=2))


# ---------------------------------------------------------------- cohomology

def test_orthogonal_symbols_have_curvature_cell():
    for n in (2, 3, 4):
        sysm = SymbolicSystem(n, n, {1: so_subspace(n)})
        assert sysm.dim(1) == n * (n - 1) // 2
        assert sysm.dim(2) == 0
        assert spencer_H(sysm, 1, 2) == n * n * (n * n - 1) // 12
        assert spencer_H(sysm, 1, 1) == 0


def test_euler_characteristic_per_antidiagonal():
    systems = [
        SymbolicSystem(3, 3, {1: so_subspace(3)}),
        SymbolicSystem(2, 1, {}, fill="full"),
    ]
    for sysm in systems:
        m = sysm.base_dim
        for total in range(1, 5):
            chi_cells = 0
            chi_h = 0
            for j in range(0, m + 1):
                i = total - j
                if i < 0:
                    continue
                chi_cells += (-1) ** j * cell_dim(sysm, i, j)
                chi_h += (-1) ** j * spencer_H(sysm, i, j)
            assert chi_cells == chi_h, (sysm.value_dim, total)


def test_spencer_table_jsonable_layout():
    tab = spencer_table(SymbolicSystem(2, 1, {}), range(0, 3), range(0, 3))
    data = tab.to_jsonable()
    assert data["source"] == "spencer"
    assert data["cells"]["0,0"] == 1
    assert all(v == 0 for key, v in data["cells"].items() if key != "0,0")


# ---------------------------------------------------------------- systems

def test_system_grade_zero_defaults_to_full():
    sysm = SymbolicSystem(3, 3, {1: so_subspace(3)})
    assert sysm.dim(0) == 3


def test_gap_in_grades_raises():
    zero1 = Subspace.zero(TensorShape(2, 1, 0, 1))
    zero3 = Subspace.zero(TensorShape(2, 3, 0, 1))
    with pytest.raises(MissingGrade):
        SymbolicSystem(2, 1, {1: zero1, 3: zero3}).grade(2)


def test_non_subcomplex_grades_rejected():
    zero1 = Subspace.zero(TensorShape(2, 1, 0, 1))
    full2 = Subspace.full(TensorShape(2, 2, 0, 1))
    with pytest.raises(NotASubcomplex):
        SymbolicSystem(2, 1, {1: zero1, 2: full2})
    # g_1 = span{x}: x^2 lowers into it, but x*y lowers to y along x.
    x = Subspace.from_rows(TensorShape(2, 1, 0, 1), [{0: 1}])
    x_sq = Subspace.from_rows(TensorShape(2, 2, 0, 1), [{0: 1}])
    xy = Subspace.from_rows(TensorShape(2, 2, 0, 1), [{1: 1}])
    assert SymbolicSystem(2, 1, {1: x, 2: x_sq}).dim(2) == 1
    with pytest.raises(NotASubcomplex):
        SymbolicSystem(2, 1, {1: x, 2: xy})


def test_full_fill_checks_the_grade_it_fills_above_a_supplied_one():
    # With fill="full" the missing grade 2 is full, and x*y lowers to y
    # along x, which g_1 = span{x} does not hold.
    x = Subspace.from_rows(TensorShape(2, 1, 0, 1), [{0: 1}])
    with pytest.raises(NotASubcomplex):
        SymbolicSystem(2, 1, {1: x}, fill="full")
    full1 = Subspace.full(TensorShape(2, 1, 0, 1))
    sysm = SymbolicSystem(2, 1, {1: full1}, fill="full")
    assert sysm.dim(2) == 3
    assert spencer_H(sysm, 0, 1) == 0


def test_negative_degree_raises():
    sysm = SymbolicSystem(2, 1, {}, fill="full")
    with pytest.raises(DegreeUnderflow):
        sysm.grade(-1)


# ---------------------------------------------------------------- prolong

def test_prolong_of_full_is_full():
    for n in (1, 2, 3):
        for d in (1, 2):
            for w in (1, 2):
                g = Subspace.full(TensorShape(n, d, 0, w))
                assert prolong(g).is_full


def test_prolong_rows_differentiate_back_into_source():
    rng = random.Random(43)
    for trial in range(15):
        n = rng.randint(1, 3)
        w = rng.randint(1, 2)
        d = rng.randint(1, 2)
        shp = TensorShape(n, d, 0, w)
        g = random_subspace(rng, shp, rng.randint(0, shp.dim))
        pg = prolong(g)
        for row in pg.rows:
            for i in range(n):
                assert g.contains_vector(partial(pg.ambient, row, i))


def test_prolong_is_maximal_with_that_property():
    rng = random.Random(47)
    for trial in range(10):
        n = rng.randint(1, 3)
        shp = TensorShape(n, 1, 0, 2)
        g = random_subspace(rng, shp, rng.randint(0, shp.dim))
        pg = prolong(g)
        up = TensorShape(n, 2, 0, 2)
        # no basis vector outside the prolongation differentiates into g
        for j in range(up.dim):
            vec = {j: Fraction(1)}
            if pg.contains_vector(vec):
                continue
            assert any(not g.contains_vector(partial(up, vec, i))
                       for i in range(n))


def test_prolong_monotone_under_inclusion():
    rng = random.Random(53)
    for trial in range(10):
        shp = TensorShape(2, 1, 0, 2)
        b = random_subspace(rng, shp, 3)
        a = Subspace.from_rows(shp, b.rows[:rng.randint(0, b.dim)])
        assert contains(prolong(b), prolong(a))


def test_prolong_of_rotations_vanishes():
    for n in (2, 3, 4):
        assert prolong(so_subspace(n)).dim == 0


def rational_grades():
    """Two grades with value_dim != base_dim and rational rows."""
    s1 = TensorShape(2, 1, 0, 3)
    g1 = Subspace.from_rows(s1, [
        {s1.index(0, 0, 0): Fraction(1, 2), s1.index(1, 0, 1): Fraction(-2, 3),
         s1.index(0, 0, 2): 3},
        {s1.index(1, 0, 0): Fraction(5, 7), s1.index(0, 0, 1): 1},
        {s1.index(1, 0, 2): Fraction(-3, 4), s1.index(0, 0, 2): Fraction(1, 5),
         s1.index(1, 0, 1): 2},
        {s1.index(0, 0, 0): 1, s1.index(1, 0, 0): Fraction(1, 3)},
    ])
    s2 = TensorShape(3, 2, 0, 2)
    g2 = Subspace.from_rows(s2, [
        {s2.index(0, 0, 0): Fraction(2, 3), s2.index(3, 0, 1): Fraction(-1, 2),
         s2.index(5, 0, 0): 1},
        {s2.index(1, 0, 0): 1, s2.index(2, 0, 1): Fraction(3, 5)},
        {s2.index(4, 0, 1): Fraction(7, 2), s2.index(1, 0, 1): -1},
        {s2.index(2, 0, 0): Fraction(1, 4), s2.index(0, 0, 1): 1,
         s2.index(4, 0, 0): Fraction(-5, 6)},
        {s2.index(3, 0, 0): 1},
        {s2.index(5, 0, 1): Fraction(2, 9), s2.index(0, 0, 0): -1},
        {s2.index(1, 0, 1): 1, s2.index(3, 0, 1): 1},
        {s2.index(2, 0, 1): 1},
        {s2.index(4, 0, 0): 1},
    ])
    return g1, g2


def test_prolong_lowers_into_the_grade_on_rational_grades():
    # (dim g, dim g^(1), dim g^(2)) against their ambient dimensions.
    want = [((4, 6), (5, 9), (6, 12)), ((9, 12), (11, 20), (12, 30))]
    for g, dims in zip(rational_grades(), want):
        chain = [g]
        for _ in range(2):
            low = chain[-1]
            up = prolong(low)
            shp = low.ambient
            forms = tensor_all_forms(low, TensorShape(
                shp.base_dim, shp.sym_degree, 1, shp.value_dim))
            dmap = delta_map(up.ambient)
            assert all(forms.contains_vector(dmap.apply(row))
                       for row in up.int_rows)
            chain.append(up)
        assert [(sub.dim, sub.ambient.dim) for sub in chain] == list(dims)


# ------------------------------------------- coordinate tables, reference

def reference_spencer_table(n, w, grades, fill, d_hi, d_range=None,
                            s_range=None):
    """The Spencer table on the ambient cells g_d (x) Lambda^s V*, with
    delta_map applied to every cell row: the per-cell reference checks that
    each image lies in the next cell, which at s = 0 is the closure of the
    grades.
    Missing grades are full at degree 0, and above the supplied ones full
    or prolonged as fill says.  The cells are those of d_range and s_range
    (by default 0..d_hi and every form degree), after the closure of every
    grade up to d_hi + 1 is checked, as SymbolicSystem does for the
    supplied ones.  Returns the cells, or "not closed"."""
    chain = {0: Subspace.full(TensorShape(n, 0, 0, w))}
    chain.update(grades)
    for d in range(1, d_hi + 2):
        if d not in chain:
            chain[d] = (Subspace.full(TensorShape(n, d, 0, w))
                        if fill == "full" else prolong(chain[d - 1]))

    def cell(d, s):
        return tensor_all_forms(chain[d], TensorShape(n, d, s, w))

    try:
        ref = PerCellComplex(n, cell, delta_map)
        for d in range(1, d_hi + 2):
            ref.rank(d, 0)
        return ref.table(d_range or range(d_hi + 1), s_range or range(n + 1))
    except NotASubcomplex:
        return "not closed"


def coordinate_spencer_table(n, w, grades, fill, d_hi, d_range=None,
                             s_range=None):
    try:
        sysm = SymbolicSystem(n, w, grades, fill)
        return spencer_table(sysm, d_range or range(d_hi + 1),
                             s_range or range(n + 1)).cells
    except NotASubcomplex:
        return "not closed"


@pytest.mark.parametrize("group, d_hi", [
    ("general:m=2", 3), ("volume:m=2", 3), ("volume:m=3", 2),
    ("complex:nc=1", 3), ("complex:nc=2", 2), ("symplectic:2n=2", 3),
    ("symplectic:2n=4", 2), ("contact:dim=3", 2), ("isometry:n=2", 3),
    ("isometry:n=3", 2),
])
def test_coordinate_tables_match_the_ambient_engine_on_the_catalog(group,
                                                                   d_hi):
    spec = parse_pseudogroup(group)
    m = spec.ambient_dim
    grades = {l: symbol(spec, l) for l in range(1, d_hi + 2)}
    want = reference_spencer_table(m, m, grades, "prolong", d_hi)
    assert want != "not closed"
    assert coordinate_spencer_table(m, m, grades, "prolong", d_hi) == want


@pytest.mark.parametrize("group, d_range, s_range", [
    # Ranges from d = 2: the lowest degree is not cleared, those above are.
    ("symplectic:2n=4", range(2, 4), range(5)),
    ("contact:dim=3", range(2, 4), range(1, 4)),
    ("isometry:n=3", range(2, 4), range(4)),
    # Ranges without s = 0 and 1: the checks at (d, 0) still run first.
    ("symplectic:2n=4", range(1, 4), range(2, 5)),
    ("complex:nc=2", range(2, 4), range(2, 4)),
    ("volume:m=3", range(1, 3), range(3, 4)),
])
def test_coordinate_tables_match_the_ambient_engine_on_partial_ranges(
        group, d_range, s_range):
    spec = parse_pseudogroup(group)
    m = spec.ambient_dim
    d_hi = d_range[-1]
    grades = {l: symbol(spec, l) for l in range(1, d_hi + 2)}
    want = reference_spencer_table(m, m, grades, "prolong", d_hi, d_range,
                                   s_range)
    assert want != "not closed"
    assert coordinate_spencer_table(m, m, grades, "prolong", d_hi, d_range,
                                    s_range) == want


def test_coordinate_tables_match_the_ambient_engine_on_rational_grades():
    # Pivot entries other than 1, and H(1, 1) = 3 and H(4, 2) = 1 on the
    # second system.
    g1, g2 = rational_grades()
    cases = [(2, 3, {1: g1}),
             (3, 2, {1: Subspace.full(TensorShape(3, 1, 0, 2)), 2: g2})]
    tables = []
    for n, w, grades in cases:
        want = reference_spencer_table(n, w, grades, "prolong", 4)
        assert coordinate_spencer_table(n, w, grades, "prolong", 4) == want
        tables.append(want)
        # From degree 2 on, and over form degrees 2 and up.
        for d_range, s_range in ((range(2, 5), None),
                                 (range(1, 5), range(2, n + 1))):
            assert coordinate_spencer_table(
                n, w, grades, "prolong", 4, d_range, s_range) == \
                reference_spencer_table(n, w, grades, "prolong", 4, d_range,
                                        s_range)
    assert tables[1][(1, 1)] == 3 and tables[1][(4, 2)] == 1


def test_coordinate_tables_match_the_ambient_engine_on_random_grades():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))

    def random_rows(data, dim, count):
        return [dict(data.draw(st.lists(
            st.tuples(st.integers(0, dim - 1), entries), max_size=4)))
            for _ in range(count)]

    @hyp.settings(max_examples=60, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3))
        w = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(0, 2))
        # Full grades below k, a random grade at k, and at k + 1 nothing
        # (prolonged), a random part of the prolongation (closed), or
        # random rows (most often not closed).
        grades = {l: Subspace.full(TensorShape(n, l, 0, w))
                  for l in range(1, k)}
        shp = TensorShape(n, k, 0, w)
        g = Subspace.from_rows(shp, random_rows(
            data, shp.dim, data.draw(st.integers(0, shp.dim))))
        grades[k] = g
        up = TensorShape(n, k + 1, 0, w)
        nxt = data.draw(st.sampled_from(["none", "part", "random"]))
        if nxt == "part":
            rows = prolong(g).int_rows
            combos = []
            for _ in range(data.draw(st.integers(0, len(rows)))):
                combo = {}
                for r in rows:
                    coef = data.draw(st.integers(-2, 2))
                    for c, v in r.items():
                        combo[c] = combo.get(c, 0) + coef * v
                combos.append(combo)
            grades[k + 1] = Subspace.from_rows(up, combos)
        elif nxt == "random":
            grades[k + 1] = Subspace.from_rows(up, random_rows(
                data, up.dim, data.draw(st.integers(0, up.dim))))
        fill = data.draw(st.sampled_from(["prolong", "prolong", "full"]))
        want = reference_spencer_table(n, w, grades, fill, 3)
        assert coordinate_spencer_table(n, w, grades, fill, 3) == want
        # A drawn range: uncleared from its lowest degree, and without the
        # low form degrees.
        d_range = range(data.draw(st.integers(0, 3)), 4)
        s_lo = data.draw(st.integers(0, n))
        s_range = range(s_lo, data.draw(st.integers(s_lo, n)) + 1)
        assert coordinate_spencer_table(n, w, grades, fill, 3, d_range,
                                        s_range) == \
            reference_spencer_table(n, w, grades, fill, 3, d_range, s_range)

    check()


def test_spencer_table_reads_each_lowering_table_once(count_calls, capsys):
    # The cells are in grade coordinates: delta_map is asked only by
    # prolongation, on forms of degree 0, and each degree's D_i are
    # computed once.
    symbolic = importlib.import_module("spencer.symbolic")
    ambient = count_calls(symbolic, "delta_map", key=lambda shape: shape)
    tables = count_calls(symbolic, "_lowering_table",
                         key=lambda upper, lower: upper.ambient.sym_degree)
    assert main(["cohomology", "--table", "spencer", "--group",
                 "complex:nc=2", "--l", "1..3"]) == 0
    capsys.readouterr()
    assert all(shape.ext_degree == 0 for shape in ambient)
    # Grades 1..4: the (4, s - 1) cells feed the incoming ranks at d = 3.
    assert tables == {1: 1, 2: 1, 3: 1, 4: 1}


def test_delta_squared_check_divides_by_the_pivot_entries(monkeypatch):
    # lowering(d) takes u among g_d's primitive rows but writes D_i u in
    # g_(d-1)'s basis scaled to pivot entries 1.  On symplectic:2n=4 those
    # entries exceed 1, so the engine's delta^2 check, which composes two
    # tables, must divide by them: composed without them it fires.
    spec = parse_pseudogroup("symplectic:2n=4")
    grades = {l: symbol(spec, l) for l in range(1, 4)}
    assert any(row[c] > 1 for c, row in zip(grades[2].pivots,
                                            grades[2].int_rows))
    cells = spencer_table(SymbolicSystem(4, 4, grades), range(3),
                          range(5)).cells
    assert cells == reference_spencer_table(4, 4, grades, "prolong", 2)

    symbolic = importlib.import_module("spencer.symbolic")
    init = symbolic._KoszulMap.__init__

    def unscaled(self, table, scale, s):
        init(self, table, [1] * len(scale), s)

    monkeypatch.setattr(symbolic._KoszulMap, "__init__", unscaled)
    with pytest.raises(NotASubcomplex, match="square to zero at degree 3"):
        spencer_table(SymbolicSystem(4, 4, grades), range(3), range(5))


def test_delta_squared_check_reads_the_rank_columns(monkeypatch, capsys):
    # The check composes the very columns that the ranks read: both come
    # from one column builder.  With every entry of
    # those columns replaced by its absolute value the Koszul matrix no
    # longer squares to zero, so the table is refused instead of printed
    # nonzero.
    symbolic = importlib.import_module("spencer.symbolic")
    placed = symbolic._KoszulMap._column

    def unsigned(self, faces, p):
        return {k: abs(v) for k, v in placed(self, faces, p).items()}

    monkeypatch.setattr(symbolic._KoszulMap, "_column", unsigned)
    assert main(["cohomology", "--table", "spencer", "--group",
                 "symplectic:2n=4", "--l", "1..3"]) == 3
    assert "does not square to zero" in capsys.readouterr().err


def test_spencer_ranks_refuse_a_column_filed_under_a_wrong_lead(monkeypatch,
                                                              capsys):
    # Each column filed under its largest key instead of its least: once
    # a row meets such a lead, the guard refuses the table (exit 3) where
    # elimination would reduce at a column that the pivot does not lead.
    symbolic = importlib.import_module("spencer.symbolic")
    leads = symbolic._KoszulMap.leads

    def last(self, cleared):
        for _, build, p in leads(self, cleared):
            yield max(build(p)), build, p

    monkeypatch.setattr(symbolic._KoszulMap, "leads", last)
    assert main(["cohomology", "--table", "spencer", "--group",
                 "complex:nc=2", "--l", "1..3"]) == 3
    assert "leads elsewhere" in capsys.readouterr().err


def test_spencer_ranks_read_only_uncleared_nonempty_columns(monkeypatch,
                                                           count_calls):
    # Columns offered to the ranks on the complex:nc=2 table over d = 1..3:
    # 840 before clearing (96 of them empty, 352 with one entry), 396
    # after.  Of those elimination builds 88: the ones whose lead a later
    # column meets, and the ones that meet a pivot themselves.  The grades
    # and their lowering tables are built first, and the delta^2 check
    # builds its columns without elimination, so every column built here
    # is built by a rank.
    sysm = system(parse_pseudogroup("complex:nc=2"), 4)
    for d in range(1, 5):
        sysm.lowering(d)
    symbolic = importlib.import_module("spencer.symbolic")
    exactla = importlib.import_module("spencer.exactla")
    offered = []
    leads = symbolic._KoszulMap.leads

    def offering(self, cleared):
        for column in leads(self, cleared):
            offered.append(column)
            yield column

    monkeypatch.setattr(symbolic._KoszulMap, "leads", offering)
    built = count_calls(exactla, "_built")
    cx = spencer_complex(sysm)
    cells = cx.table(range(1, 4), range(5), "spencer").cells
    assert len(cells) == 15 and not any(cells.values())
    assert len(offered) == 396
    assert built.total() == 88
    # No offered column is empty, and each leads at its stored key.
    assert all(min(build(p)) == lead for lead, build, p in offered)
    # Each pivot set was released when read; left are those of the
    # incoming ranks at d = 4, which no rank of the range reads.
    assert {d for d, s in cx._pivots} == {4}


# ---------------------------------------------------------------- characteristics

def symplectic_grade_one():
    # span of Hamiltonian quadratics in two variables, i.e. sl(2) fields
    shp = TensorShape(2, 1, 0, 2)
    rows = [
        {shp.index(0, 0, 0): Fraction(1), shp.index(1, 0, 1): Fraction(-1)},
        {shp.index(1, 0, 0): Fraction(1)},
        {shp.index(0, 0, 1): Fraction(1)},
    ]
    return Subspace.from_rows(shp, rows)


def test_char_fiber_of_plane_symplectic_is_a_line():
    g1 = symplectic_grade_one()
    assert char_fiber([1, 0], g1).dim == 1
    assert char_fiber([0, 1], g1).dim == 1
    assert char_fiber([2, 3], g1).dim == 1


def test_char_fiber_rejects_zero_covector():
    with pytest.raises(ZeroVector):
        char_fiber([0, 0], symplectic_grade_one())


def test_char_fiber_of_full_symbols_is_everything():
    g1 = Subspace.full(TensorShape(3, 1, 0, 3))
    assert char_fiber([1, 1, 0], g1).dim == 3


def test_substituted_evaluates_to_the_product_of_linear_forms():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.integers(-4, 4)
    rationals = st.builds(Fraction, ints, st.integers(1, 5))

    @hyp.settings(max_examples=60, deadline=None, database=None,
                  derandomize=True)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 4))
        entry = data.draw(st.sampled_from([ints, rationals]))
        tau = [[data.draw(entry) for _ in range(m)] for _ in range(n)]
        degree = data.draw(st.integers(0, 4))
        mono = [0] * m
        for _ in range(degree):
            mono[data.draw(st.integers(0, m - 1))] += 1
        mono = tuple(mono)
        y = [data.draw(rationals) for _ in range(n)]
        forms = [{a: tau[a][j] for a in range(n)} for j in range(m)]
        poly = _substituted(mono, forms, n)
        assert all(v and sum(e) == degree for e, v in poly.items())
        value = Fraction(0)
        for exps, coef in poly.items():
            term = Fraction(coef)
            for ya, e in zip(y, exps):
                term *= ya ** e
            value += term
        want = Fraction(1)
        for j, e in enumerate(mono):
            want *= sum(tau[a][j] * y[a] for a in range(n)) ** e
        assert value == want

    check()


def test_annihilator_dimension():
    ann = annihilator([[1, 0, 0], [0, 1, 0]], 3)
    assert ann.dim == 1
    assert ann.contains_vector({2: Fraction(1)})


def test_strong_noncharacteristicity_detects_bad_flags():
    from spencer.catalog import parse_pseudogroup, symbol, stratum_tau
    cx = parse_pseudogroup("complex:nc=2")
    g1 = symbol(cx, 1)
    good = stratum_tau(cx, "totally-real")
    bad = stratum_tau(cx, "j-invariant-line")
    assert strongly_noncharacteristic(good, g1)
    assert noncharacteristic_obstruction(good, g1).dim == 0
    assert not strongly_noncharacteristic(bad, g1)
    assert noncharacteristic_obstruction(bad, g1).dim == 4
