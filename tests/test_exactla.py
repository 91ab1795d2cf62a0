"""Exact linear algebra: echelon canonicity, subspace lattice, map calculus."""

import collections
import copy
import math
import random
from fractions import Fraction

import pytest

from spencer import exactla
from spencer.covariants import FlagContext, restriction_map
from spencer.errors import (AmbientMismatch, ConsistencyCheckFailed,
                            DegreeUnderflow, NotASubspace, ShapeMismatch)
from spencer.symbolic import GradeShape, delta_map
from spencer.exactla import (
    TensorShape, Subspace, LinearMap,
    sym_basis, wedge_basis, echelon, rank_of_rows,
    subspace_sum, subspace_intersect, contains, quotient_dim,
    image, kernel, kernel_of_rows, preimage, det, solve,
)


def binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def random_rows(rng, count, width, density=0.6):
    rows = []
    for _ in range(count):
        row = {}
        for j in range(width):
            if rng.random() < density:
                row[j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        rows.append(row)
    return rows


# ---------------------------------------------------------------- bases

def test_sym_basis_order_and_count():
    assert sym_basis(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))
    for n in range(1, 5):
        for d in range(0, 5):
            basis = sym_basis(n, d)
            assert len(basis) == binom(n + d - 1, d)
            assert len(set(basis)) == len(basis)
            assert all(sum(mono) == d for mono in basis)


def test_wedge_basis_order_and_count():
    assert wedge_basis(3, 2) == ((0, 1), (0, 2), (1, 2))
    for n in range(1, 5):
        for e in range(0, n + 1):
            basis = wedge_basis(n, e)
            assert len(basis) == binom(n, e)
            assert list(basis) == sorted(basis)


def test_tensor_shape_index_roundtrip():
    shp = TensorShape(3, 2, 1, 2)
    assert shp.dim == 6 * 3 * 2
    seen = set()
    for flat in range(shp.dim):
        s, w, v = shp.unpack(flat)
        assert shp.index(s, w, v) == flat
        seen.add((s, w, v))
    assert len(seen) == shp.dim


def test_tensor_shape_separate_exterior_dim():
    shp = TensorShape(3, 1, 1, 1, ext_dim=2)
    assert shp.wedge_count == 2
    assert shp.dim == 3 * 2


def test_tensor_shape_is_a_class_strict_validated_tuple():
    # The complexes memoize differentials by shape, and a GradeShape lays
    # out its coordinates differently: equal fields must not make it equal
    # to a TensorShape, under == or !=.
    plain, grade = TensorShape(2, 1, 1, 1), GradeShape(2, 1, 1, 1)
    assert tuple(plain) == tuple(grade)
    assert not plain == grade and not grade == plain
    assert plain != grade and grade != plain
    assert plain != tuple(plain) and not plain == tuple(plain)
    assert len({plain, grade}) == 2
    assert plain == TensorShape(2, 1, 1, 1, ext_dim=2)
    assert hash(plain) == hash(TensorShape(2, 1, 1, 1, 2))
    assert hash(grade) == hash(GradeShape(2, 1, 1, 1))
    assert plain.ext_dim == 2 and TensorShape(3, 0, 0, 1).ext_dim == 3
    wide = grade._replace(value_dim=3)
    assert type(wide) is GradeShape and wide.value_dim == 3
    assert wide.dim == 2 * 2 * 3  # base_dim rows, 2 forms, 3 values
    assert type(plain._replace(ext_dim=1)) is TensorShape
    for args in ((0, 1, 1, 1), (2, 1, 1, -1), (2, 1, 1, 1, -1)):
        with pytest.raises(ShapeMismatch):
            TensorShape(*args)
    for args in ((2, -1, 0, 1), (2, 0, -1, 1)):
        with pytest.raises(DegreeUnderflow):
            TensorShape(*args)
    with pytest.raises(ShapeMismatch):
        plain._replace(value_dim=-1)
    with pytest.raises(DegreeUnderflow):
        plain._replace(sym_degree=-1)


# ---------------------------------------------------------------- echelon

def test_echelon_canonical_under_row_shuffle():
    rng = random.Random(7)
    for trial in range(30):
        width = rng.randint(2, 9)
        rows = random_rows(rng, rng.randint(1, 7), width)
        base = echelon(rows)
        for _ in range(3):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            scaled = []
            for r in shuffled:
                c = Fraction(rng.randint(1, 5))
                scaled.append({j: c * v for j, v in r.items()})
            assert echelon(scaled) == base


def test_echelon_rows_are_reduced():
    rng = random.Random(11)
    for trial in range(20):
        width = rng.randint(2, 8)
        piv = echelon(random_rows(rng, rng.randint(1, 6), width))
        for p, row in piv.items():
            assert row[p] > 0
            for q in piv:
                if q != p:
                    assert row.get(q, 0) == 0


def test_rank_matches_dense_gaussian_reference():
    rng = random.Random(13)
    for trial in range(25):
        width = rng.randint(1, 8)
        rows = random_rows(rng, rng.randint(1, 8), width)
        dense = [[Fraction(r.get(j, 0)) for j in range(width)] for r in rows]
        rank = 0
        for col in range(width):
            piv_row = None
            for i in range(rank, len(dense)):
                if dense[i][col] != 0:
                    piv_row = i
                    break
            if piv_row is None:
                continue
            dense[rank], dense[piv_row] = dense[piv_row], dense[rank]
            lead = dense[rank][col]
            for i in range(len(dense)):
                if i != rank and dense[i][col] != 0:
                    factor = dense[i][col] / lead
                    dense[i] = [a - factor * b for a, b in zip(dense[i], dense[rank])]
            rank += 1
        assert rank_of_rows(rows) == rank


# ---------------------------------------------------------------- subspaces

def test_subspace_membership_and_reduction():
    rng = random.Random(17)
    shp = TensorShape.vector(7)
    for trial in range(20):
        rows = random_rows(rng, rng.randint(1, 5), 7)
        sub = Subspace.from_rows(shp, rows)
        # any linear combination of generators lies inside
        combo = {}
        for r in rows:
            c = Fraction(rng.randint(-4, 4))
            for j, val in r.items():
                combo[j] = combo.get(j, Fraction(0)) + c * val
        assert sub.contains_vector(combo)
        assert sub.reduce_vector(combo) == {}


def test_grassmann_dimension_identity():
    rng = random.Random(19)
    shp = TensorShape.vector(8)
    for trial in range(30):
        a = Subspace.from_rows(shp, random_rows(rng, rng.randint(0, 5), 8))
        b = Subspace.from_rows(shp, random_rows(rng, rng.randint(0, 5), 8))
        total = subspace_sum(a, b)
        meet = subspace_intersect(a, b)
        assert total.dim + meet.dim == a.dim + b.dim
        assert contains(total, a) and contains(total, b)
        assert contains(a, meet) and contains(b, meet)


def test_quotient_dim_and_codim():
    shp = TensorShape.vector(5)
    big = Subspace.from_dense(shp, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    small = Subspace.from_dense(shp, [[1, 1, 0, 0, 0]])
    assert quotient_dim(big, small) == 2
    assert big.codim == 2
    with pytest.raises(NotASubspace):
        quotient_dim(small, big)


def test_quotient_coords_vanish_exactly_on_members():
    shp = TensorShape.vector(4)
    sub = Subspace.from_dense(shp, [[1, 2, 0, 0], [0, 0, 1, -1]])
    assert sub.quotient_coords({0: Fraction(1), 1: Fraction(2)}) == {}
    out = sub.quotient_coords({1: Fraction(1)})
    assert out


def test_from_dense_rejects_wrong_row_length():
    shp = TensorShape.vector(3)
    with pytest.raises(ShapeMismatch):
        Subspace.from_dense(shp, [[1, 0]])


def test_full_subspace_equals_the_span_of_unit_rows():
    shp = TensorShape(2, 2, 1, 2)
    full = Subspace.full(shp)
    assert full.dim == shp.dim and full.is_full
    units = Subspace.from_rows(shp, [{i: 1} for i in range(shp.dim)])
    assert full.pivots == units.pivots == tuple(range(shp.dim))
    assert full == units and full.int_rows == units.int_rows
    assert full.reduce_vector({3: 5, 7: -1}) == {}
    assert Subspace.full(shp).rows == units.rows


def test_full_spaces_compare_without_unit_rows(count_calls):
    # A full space builds its unit rows (through __getattr__) on first use;
    # comparing two full spaces needs only their ambients and dims.
    built = count_calls(Subspace, "__getattr__")
    shp = TensorShape(2, 2, 1, 2)
    units = Subspace.from_rows(shp, [{i: 1} for i in range(shp.dim)])
    assert Subspace.full(shp) == units and units == Subspace.full(shp)
    assert Subspace.full(shp) == Subspace.full(shp)
    assert Subspace.full(shp) != Subspace.zero(shp)
    assert Subspace.full(shp) != Subspace.full(TensorShape(2, 2, 1, 1))
    half = Subspace.from_rows(shp, [{i: 1} for i in range(shp.dim - 1)])
    assert Subspace.full(shp) != half
    assert built.total() == 0


def test_from_rows_rejects_columns_outside_the_ambient():
    shp = TensorShape.vector(2)
    # Column 5 is not a pivot column of the echelon form.
    with pytest.raises(ShapeMismatch):
        Subspace.from_rows(shp, [{0: 1, 5: 1}])
    with pytest.raises(ShapeMismatch):
        Subspace.from_rows(shp, [{2: 1}])
    assert Subspace.from_rows(shp, [{0: 1, 1: 1}]).dim == 1


def test_ambient_mismatch_raises():
    a = Subspace.full(TensorShape.vector(3))
    b = Subspace.full(TensorShape.vector(4))
    with pytest.raises(AmbientMismatch):
        subspace_sum(a, b)


def test_subspace_equality_is_by_span():
    shp = TensorShape.vector(3)
    a = Subspace.from_dense(shp, [[1, 1, 0], [0, 2, 0]])
    b = Subspace.from_dense(shp, [[3, 0, 0], [5, 1, 0]])
    assert a == b
    c = Subspace.from_dense(shp, [[1, 0, 0], [0, 0, 1]])
    assert a != c


# ---------------------------------------------------------------- maps

def build_map(rng, dom, cod):
    rows = []
    for j in range(dom.dim):
        row = {}
        for i in range(cod.dim):
            if rng.random() < 0.5:
                row[i] = Fraction(rng.randint(-5, 5))
        rows.append(row)
    return LinearMap(dom, cod, rows)


def test_rank_nullity_for_random_maps():
    rng = random.Random(23)
    for trial in range(20):
        dom = TensorShape.vector(rng.randint(1, 6))
        cod = TensorShape.vector(rng.randint(1, 6))
        f = build_map(rng, dom, cod)
        assert kernel(f).dim + image(f).dim == dom.dim


def test_kernel_vectors_map_to_zero():
    rng = random.Random(29)
    dom = TensorShape.vector(6)
    cod = TensorShape.vector(4)
    f = build_map(rng, dom, cod)
    for row in kernel(f).rows:
        assert f.apply(row) == {}


def test_preimage_of_image_contains_domain_restriction():
    rng = random.Random(31)
    dom = TensorShape.vector(6)
    cod = TensorShape.vector(5)
    f = build_map(rng, dom, cod)
    sub = Subspace.from_rows(dom, random_rows(rng, 3, 6))
    img = image(f, sub)
    back = preimage(f, img)
    assert contains(back, sub)
    assert image(f, back) == img


def test_compose_agrees_with_sequential_apply():
    rng = random.Random(37)
    a = TensorShape.vector(4)
    b = TensorShape.vector(5)
    c = TensorShape.vector(3)
    f = build_map(rng, a, b)
    g = build_map(rng, b, c)
    gf = f.compose(g)
    for j in range(a.dim):
        vec = {j: Fraction(1)}
        assert gf.apply(vec) == g.apply(f.apply(vec))


def test_kernel_of_rows_finds_vanishing_combinations():
    rng = random.Random(41)
    rows = random_rows(rng, 5, 4)
    ker = kernel_of_rows(rows, 4, TensorShape.vector(5))
    for combo in ker.rows:
        total = {}
        for i, r in enumerate(rows):
            c = combo.get(i, Fraction(0))
            for j, val in r.items():
                total[j] = total.get(j, Fraction(0)) + c * val
        assert all(v == 0 for v in total.values())
    assert ker.dim == 5 - rank_of_rows(rows)


def test_integer_data_stays_integer():
    shp = TensorShape.vector(3)
    f = LinearMap(shp, shp, [{0: 2, 1: -1}, {2: 3}, {}])
    assert all(type(v) is int for v in f.apply({0: 1, 1: 4}).values())
    sub = Subspace.from_dense(shp, [[2, 4, 0], [0, 3, 6]])
    assert sub.int_rows == ({0: 1, 2: -4}, {1: 1, 2: 2})
    half = Subspace.from_dense(TensorShape.vector(2), [[Fraction(4), 2]])
    assert half.int_rows == ({0: 2, 1: 1},)
    assert half.rows == ({0: Fraction(1), 1: Fraction(1, 2)},)
    assert all(type(v) is Fraction for v in half.rows[0].values())
    # An integer flag gives an integer restriction map.
    lam = restriction_map(FlagContext(4, [[1, 0, 0, 0], [0, 1, 0, 0]]), 2)
    entries = [v for row in lam.rows for v in row.values()]
    assert entries and all(type(v) is int for v in entries)


def test_echelon_drops_explicit_zero_entries():
    assert echelon([{0: 0, 1: 2, 2: -4}]) == {1: {1: 1, 2: -2}}
    assert rank_of_rows([{0: 0}, {3: Fraction(0), 1: Fraction(1, 2)}]) == 1


def kind_rows(rng, kind, count, width):
    """Sparse rows of one kind: small ints, Fractions, or both mixed.  The
    entries are not all units, so both the divisible and the scaled
    elimination step occur."""
    def entry():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6])
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return [{j: entry() for j in range(width) if rng.random() < 0.6}
            for _ in range(count)]


def run_eliminations(shp, rows, other):
    """Every eliminating operation on rows (in the ambient shp), with the
    Subspace other of shp as the second operand."""
    echelon(rows)
    echelon(rows, canonical=False)
    rank_of_rows(rows)
    sub = Subspace.from_rows(shp, rows)
    for row in rows:
        other.contains_vector(row)
        sub.contains_vector(row)
    for a, b in ((sub, other), (other, sub)):
        subspace_sum(a, b)
        subspace_intersect(a, b)
    f = LinearMap(TensorShape.vector(len(rows)), shp, rows)
    image(f)
    image(f, Subspace.from_rows(f.domain, [{0: 1}, {len(rows) - 1: 2}]))
    preimage(f, other)


@pytest.mark.parametrize("kind", ("int", "fraction", "mixed"))
def test_eliminations_leave_their_inputs_unchanged(kind):
    # The kernel reduces rows in place; it must never reach a caller's row,
    # or an aliased row would silently corrupt a memoized map.
    rng = random.Random(43)
    for trial in range(15):
        width = rng.randint(2, 8)
        shp = TensorShape.vector(width)
        rows = kind_rows(rng, kind, rng.randint(2, 7), width)
        other = Subspace.from_rows(shp, kind_rows(rng, kind, 3, width))
        sub = Subspace.from_rows(shp, rows)
        inputs = (rows, sub.int_rows, other.int_rows)
        before = copy.deepcopy(inputs)
        run_eliminations(shp, rows, other)
        run_eliminations(shp, list(sub.int_rows), other)
        assert inputs == before
    shp = TensorShape(2, 2, 0, 2)
    dmap = delta_map(shp)
    cod = dmap.codomain
    other = Subspace.from_rows(cod, kind_rows(rng, kind, 4, cod.dim))
    before = copy.deepcopy((dmap.rows, other.int_rows))
    run_eliminations(cod, list(dmap.rows), other)
    image(dmap)
    preimage(dmap, other)
    assert delta_map(shp) is dmap
    assert (dmap.rows, other.int_rows) == before


# ------------------------------------------------- reference implementations
#
# The elimination kernels as they were before the sparse rewrite: a
# back-substitution over every pivot pair and a reduction that walks every
# pivot.  They are kept only as the reference the kernels must match exactly.
# One difference: integer rows also go through the conversion that drops
# zero entries (the old shortcut for them kept explicit zeros).


def _ref_gcd_reduce(row):
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    if row and row[min(row)] < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _ref_as_int_row(vec):
    items = [(c, Fraction(v)) for c, v in vec.items() if v]
    if not items:
        return {}
    denom_lcm = 1
    for _, v in items:
        denom_lcm = denom_lcm * v.denominator // math.gcd(denom_lcm,
                                                          v.denominator)
    return _ref_gcd_reduce({c: int(v * denom_lcm) for c, v in items})


def _ref_combine(a, row_a, b, row_b):
    out = {c: a * v for c, v in row_a.items()}
    for c, v in row_b.items():
        w = out.get(c, 0) + b * v
        if w:
            out[c] = w
        elif c in out:
            del out[c]
    return _ref_gcd_reduce(out)


def ref_echelon(rows, canonical=True):
    piv = {}
    for raw in rows:
        r = _ref_as_int_row(raw)
        while r:
            c = min(r)
            p = piv.get(c)
            if p is None:
                piv[c] = _ref_gcd_reduce(r)
                break
            r = _ref_combine(p[c], r, -r[c], p)
    if canonical:
        for c in sorted(piv, reverse=True):
            prow = piv[c]
            for c2 in piv:
                if c2 < c:
                    other = piv[c2]
                    if c in other:
                        piv[c2] = _ref_combine(prow[c], other, -other[c], prow)
    return piv


def ref_canonical_rows(rows):
    """(pivots, Fraction RREF rows with pivot 1) of the span of rows."""
    piv = ref_echelon(rows)
    pivots = tuple(sorted(piv))
    return pivots, tuple({col: Fraction(v, piv[c][c])
                          for col, v in sorted(piv[c].items())}
                         for c in pivots)


def ref_reduce_vector(pivots, rows, vec):
    out = {c: Fraction(v) for c, v in vec.items() if v}
    for c, row in zip(pivots, rows):
        coef = out.get(c)
        if not coef:
            continue
        for col, v in row.items():
            w = out.get(col, 0) - coef * v
            if w:
                out[col] = w
            elif col in out:
                del out[col]
    return out


def ref_quotient_coords(pivots, rows, dim, vec):
    free = [c for c in range(dim) if c not in pivots]
    pos = {c: i for i, c in enumerate(free)}
    return {pos[c]: v
            for c, v in ref_reduce_vector(pivots, rows, vec).items()}


def ref_intersect(a_rows, b_rows, n):
    stacked = []
    for r in a_rows:
        row = dict(r)
        for c, v in r.items():
            row[c + n] = v
        stacked.append(row)
    stacked.extend(dict(r) for r in b_rows)
    piv = ref_echelon(stacked, canonical=False)
    return ref_canonical_rows([{c - n: v for c, v in row.items()}
                               for c0, row in piv.items() if c0 >= n])


def ref_preimage(f_rows, s_rows, n):
    pivots, rows = ref_canonical_rows(s_rows)
    width = n - len(pivots)
    stacked = []
    for i, r in enumerate(f_rows):
        row = ref_quotient_coords(pivots, rows, n, r)
        row[width + i] = Fraction(1)
        stacked.append(row)
    piv = ref_echelon(stacked, canonical=False)
    return ref_canonical_rows([{c - width: v for c, v in row.items()}
                               for c0, row in piv.items() if c0 >= width])


# ------------------------------------------------- property checks

# "big" draws numerators up to 2^40 and denominators up to 2^20 among small
# ints, so coefficients grow and pivots both divide and do not divide.
KINDS = ("int", "fraction", "mixed", "big")


def _strategies():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    settings = hyp.settings(max_examples=40, deadline=None, database=None,
                            derandomize=True)
    return hyp.given, settings, st


def _row_lists(st, kind, width, max_rows=7, min_rows=0):
    """Random sparse rows over range(width) with nonzero entries."""
    ints = st.sampled_from([v for v in range(-9, 10) if v])
    fracs = st.builds(Fraction, ints, st.integers(1, 9))
    bigs = st.integers(-2 ** 40, 2 ** 40).filter(bool)
    value = {"int": ints, "fraction": fracs,
             "mixed": st.one_of(ints, fracs),
             "big": st.one_of(ints, bigs, st.builds(Fraction, bigs,
                                                   st.integers(1, 2 ** 20)))
             }[kind]
    row = st.dictionaries(st.integers(0, width - 1), value, max_size=width)
    return st.lists(row, min_size=min_rows, max_size=max_rows)


@pytest.mark.parametrize("kind", KINDS)
def test_echelon_matches_reference(kind):
    given, settings, st = _strategies()

    @settings
    @given(st.data())
    def check(data):
        width = data.draw(st.integers(1, 10))
        rows = data.draw(_row_lists(st, kind, width, max_rows=9))
        for canonical in (True, False):
            assert echelon(iter(rows), canonical) == \
                ref_echelon(rows, canonical)

    check()


def test_deferred_rows_give_the_pivots_of_the_built_rows():
    # A row may reach elimination deferred, as (lead, build, arg): it is
    # built only when a row meets its lead, or when its lead meets a pivot.
    # On random sparse integer rows, some of them deferred, the pivot
    # columns are those of the built rows, each deferred row is built at
    # most once, and echelon, which builds every pivot before it returns,
    # gives the rows it gives on the built rows.  The rows have negative
    # leading entries and shared leads, and dense rows come last and meet
    # the deferred pivots, as the restriction's columns do in the ranks.
    # A builder returns a new dict, which elimination keeps as its row.
    given, settings, st = _strategies()
    entry = st.sampled_from([v for v in range(-4, 5) if v])

    @settings
    @given(st.data())
    def check(data):
        width = data.draw(st.integers(1, 8))
        rows = []
        for lead in data.draw(st.lists(st.integers(0, width - 1),
                                       max_size=12)):
            tail = data.draw(st.dictionaries(st.integers(lead, width - 1),
                                             entry, max_size=3))
            rows.append({**tail, lead: data.draw(entry)})
        for _ in range(data.draw(st.integers(0, 3))):
            rows.append({c: data.draw(entry) for c in range(width)})
        built = []

        def build(i):
            built.append(i)
            return dict(rows[i])

        mixed = [(min(row), build, i) if data.draw(st.booleans()) else row
                 for i, row in enumerate(rows)]
        want = echelon(rows, canonical=False)
        piv = exactla._pivot_rows(iter(mixed))
        assert piv.keys() == want.keys()
        assert len(built) == len(set(built))
        # A pivot that was built is the row that the built rows give.
        assert all(row == want[c] for c, row in piv.items()
                   if type(row) is dict)
        assert echelon(iter(mixed), canonical=False) == want
        assert echelon(iter(mixed)) == echelon(rows)
        assert rank_of_rows(iter(mixed)) == len(want)

    check()


def test_a_deferred_row_under_a_wrong_lead_is_refused():
    # Filed under column 1, the row leads at 0.  Once a row meets it, or
    # echelon builds it to return it, the guard refuses it, where reducing
    # at a column that the row does not lead need not end.
    row = (1, dict, {0: 1, 1: 2})
    with pytest.raises(ConsistencyCheckFailed, match="leads elsewhere"):
        exactla._pivot_rows([row, {1: 3}])
    with pytest.raises(ConsistencyCheckFailed, match="leads elsewhere"):
        echelon([row], canonical=False)
    with pytest.raises(ConsistencyCheckFailed, match="leads elsewhere"):
        echelon([(0, dict, {})], canonical=False)
    # Unmet, it is never built: the pivot columns do not read the row.
    assert rank_of_rows([row, {2: 1}]) == 2


@pytest.mark.parametrize("kind", KINDS)
def test_reduce_vector_and_quotient_coords_match_reference(kind):
    given, settings, st = _strategies()

    @settings
    @given(st.data())
    def check(data):
        width = data.draw(st.integers(1, 10))
        rows = data.draw(_row_lists(st, kind, width))
        sub = Subspace.from_rows(TensorShape.vector(width), rows)
        pivots, ref_rows = ref_canonical_rows(rows)
        assert (sub.pivots, sub.rows) == (pivots, ref_rows)
        for c, row in zip(sub.pivots, sub.int_rows):
            assert row[c] > 0 and math.gcd(*row.values()) == 1
        for vec in data.draw(_row_lists(st, kind, width, max_rows=4)):
            assert sub.reduce_vector(vec) == \
                ref_reduce_vector(pivots, ref_rows, vec)
            assert sub.quotient_coords(vec) == \
                ref_quotient_coords(pivots, ref_rows, width, vec)

    check()


@pytest.mark.parametrize("kind", KINDS)
def test_intersect_and_preimage_match_reference(kind):
    given, settings, st = _strategies()

    @settings
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        shp = TensorShape.vector(n)
        a_rows = data.draw(_row_lists(st, kind, n, max_rows=5))
        b_rows = data.draw(_row_lists(st, kind, n, max_rows=8))
        a = Subspace.from_rows(shp, a_rows)
        b = Subspace.from_rows(shp, b_rows)
        # Each operand order: the smaller operand is reduced modulo the
        # larger one whichever comes first.
        for x, y in ((a, b), (b, a)):
            meet = subspace_intersect(x, y)
            assert (meet.pivots, meet.rows) == \
                ref_intersect(x.rows, y.rows, n)
            total = subspace_sum(x, y)
            assert (total.pivots, total.rows) == \
                ref_canonical_rows(x.rows + y.rows)
        orders[(a.dim > b.dim) - (a.dim < b.dim)] += 1
        k = data.draw(st.integers(1, 6))
        f_rows = data.draw(_row_lists(st, kind, n, max_rows=k, min_rows=k))
        f = LinearMap(TensorShape.vector(k), shp, f_rows)
        back = preimage(f, b)
        assert (back.pivots, back.rows) == ref_preimage(f_rows, b_rows, n)

    orders = collections.Counter()
    check()
    # Operands of unequal dimensions came in both orders.
    assert orders[1] and orders[-1]


@pytest.mark.parametrize("kind", KINDS)
def test_full_and_zero_fast_paths_match_the_general_path(kind, count_calls):
    given, settings, st = _strategies()

    @settings
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        shp = TensorShape.vector(n)
        b_rows = data.draw(_row_lists(st, kind, n, max_rows=5))
        b = Subspace.from_rows(shp, b_rows)
        k = data.draw(st.integers(1, 6))
        f_rows = data.draw(_row_lists(st, kind, n, max_rows=k, min_rows=k))
        f = LinearMap(TensorShape.vector(k), shp, f_rows)
        units = [{i: 1} for i in range(n)]
        for full in (Subspace.full(shp), Subspace.from_rows(shp, units)):
            assert contains(full, b) == all(map(full.contains_vector,
                                                b.int_rows))
            for meet in (subspace_intersect(full, b),
                         subspace_intersect(b, full)):
                assert (meet.pivots, meet.rows) == \
                    ref_intersect(units, b.rows, n)
            back = preimage(f, full)
            assert (back.pivots, back.rows) == \
                ref_preimage(f_rows, units, n)
        zero = Subspace.zero(shp)
        for meet in (subspace_intersect(zero, b),
                     subspace_intersect(b, zero)):
            assert (meet.pivots, meet.rows) == ref_intersect([], b.rows, n)
        # A sum with a full or a zero operand eliminates nothing, and a
        # full operand builds no unit rows (through __getattr__).
        full = Subspace.full(shp)
        before = built.total(), echelons.total()
        sums = [subspace_sum(full, b), subspace_sum(b, full),
                subspace_sum(zero, b), subspace_sum(b, zero)]
        assert (built.total(), echelons.total()) == before
        assert all(total.is_full for total in sums[:2])
        for total in sums[2:]:
            assert (total.pivots, total.rows) == ref_canonical_rows(b.rows)

    built = count_calls(Subspace, "__getattr__")
    echelons = count_calls(exactla, "echelon")
    check()


@pytest.mark.parametrize("kind", KINDS)
def test_contains_vector_agrees_with_reduce_vector(kind):
    given, settings, st = _strategies()
    leads = []

    @settings
    @given(st.data())
    def check(data):
        width = data.draw(st.integers(1, 10))
        rows = data.draw(_row_lists(st, kind, width, min_rows=1))
        sub = Subspace.from_rows(TensorShape.vector(width), rows)
        leads.extend(row[c] for c, row in zip(sub.pivots, sub.int_rows))
        for vec in data.draw(_row_lists(st, kind, width, max_rows=4)):
            assert sub.contains_vector(vec) == (not sub.reduce_vector(vec))
            # The integer residual is a positive multiple of the reduced one.
            residual, reduced = sub.residual(vec), sub.reduce_vector(vec)
            assert residual.keys() == reduced.keys()
            ratios = {Fraction(residual[c]) / v for c, v in reduced.items()}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)
        coefs = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows),
                                   max_size=len(rows)))
        combo = {}
        for c, row in zip(coefs, rows):
            for col, v in row.items():
                combo[col] = combo.get(col, 0) + c * v
        assert sub.contains_vector(combo)
        free = [c for c in range(width) if c not in sub.pivots]
        if free:
            j = data.draw(st.sampled_from(free))
            combo[j] = combo.get(j, 0) + 1
            assert not sub.contains_vector(combo)

    check()
    # Some drawn rows reduce to primitive rows whose pivot entry is not 1.
    assert any(lead != 1 for lead in leads)


@pytest.mark.parametrize("kind", KINDS)
def test_rank_matches_sympy(kind):
    sympy = pytest.importorskip("sympy")
    given, settings, st = _strategies()

    @settings
    @given(st.data())
    def check(data):
        width = data.draw(st.integers(1, 9))
        rows = data.draw(_row_lists(st, kind, width, max_rows=9))
        dense = [[sympy.Rational(r.get(j, 0)) for j in range(width)]
                 for r in rows]
        expected = sympy.Matrix(dense).rank() if rows else 0
        assert rank_of_rows(rows) == expected

    check()


# ---------------------------------------------------------------- square systems

def cofactor_det(matrix):
    """Reference determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    total = 0
    for col, v in enumerate(matrix[0]):
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        total += (-1) ** col * v * cofactor_det(minor)
    return total


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_det_and_solve_match_cofactor_reference(kind):
    rng = random.Random(5)

    def entry():
        if rng.random() < 0.3:
            return 0
        if kind == "int":
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    singular = 0
    for _ in range(60):
        size = rng.randint(1, 5)
        matrix = [[entry() for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.2:
            matrix[-1] = [2 * v for v in matrix[0]]
        want = cofactor_det(matrix)
        got = det(matrix)
        assert got == want
        integral = all(type(v) is int for row in matrix for v in row)
        assert type(got) is (int if integral else Fraction)
        rhs = [entry() for _ in range(size)]
        x = solve(matrix, rhs)
        if not want:
            singular += 1
            assert x is None
            continue
        assert all(type(v) is Fraction for v in x)
        assert [sum(a * b for a, b in zip(row, x)) for row in matrix] == rhs
    assert singular
    assert det([]) == 1

