"""Built-in transformation families: parsing, symbol grades, closed-form
dimension counts, flag strata, and growth-rate helpers."""

import math
from fractions import Fraction

import pytest

from spencer.errors import ParamOutOfRange, CapExceeded, UnsupportedDegree
from spencer.symbolic import prolong, SymbolicSystem
from spencer.catalog import (
    PseudogroupSpec, make_spec, parse_pseudogroup,
    full_symbol_dim, symbol_dim, volume_claimed_dim,
    symbol, system, materialization_cap, DEFAULT_CAP,
    point_lie_dim, point_lie_total, contact_lie_dim,
    asymptotic_ratio_point, asymptotic_ratio_contact,
    dimension_inequality, point_lie_embed,
    stratum_tau, STRATUM_NAMES,
)


# ---------------------------------------------------------------- parsing

def test_parse_round_trip():
    for text in ("general:m=3", "volume:m=2", "complex:nc=2",
                 "symplectic:2n=4", "contact:dim=5", "isometry:n=3",
                 "point_lie:n=1,r=2,k=1", "contact_lie:n=2,k=1"):
        spec = parse_pseudogroup(text)
        assert parse_pseudogroup(str(spec)) == spec


def test_parse_rejects_bad_input():
    for bad in ("symplectic:2n=3", "contact:dim=4", "contact:dim=1",
                "isometry:n=1", "bogus:m=2", "general", "general:m=0",
                "point_lie:n=1", "symplectic:m=4"):
        with pytest.raises((ParamOutOfRange, KeyError, ValueError)):
            parse_pseudogroup(bad)


def test_make_spec_matches_parser():
    assert make_spec("symplectic", **{"2n": 4}) == parse_pseudogroup("symplectic:2n=4")
    assert parse_pseudogroup("general:m=3").ambient_dim == 3
    assert parse_pseudogroup("contact:dim=5").ambient_dim == 5


# ---------------------------------------------------------------- dimensions

def test_general_symbols_are_full():
    for m in (1, 2, 3):
        spec = parse_pseudogroup("general:m=%d" % m)
        for l in (1, 2, 3):
            assert symbol_dim(spec, l) == full_symbol_dim(m, l)
            assert symbol(spec, l).is_full


def test_symplectic_dimension_formula():
    for twon in (2, 4, 6):
        spec = parse_pseudogroup("symplectic:2n=%d" % twon)
        for l in range(1, 7):
            assert symbol_dim(spec, l) == math.comb(twon + l, l + 1)


def test_contact_dimension_formula():
    for dim in (3, 5, 7):
        spec = parse_pseudogroup("contact:dim=%d" % dim)
        for l in range(1, 7):
            assert symbol_dim(spec, l) == math.comb(dim + l, l + 1)


def test_complex_dimension_formula():
    for nc in (1, 2):
        spec = parse_pseudogroup("complex:nc=%d" % nc)
        for l in range(1, 5):
            assert symbol_dim(spec, l) == 2 * nc * math.comb(nc + l - 1, l)


def test_volume_dimension_formula():
    for m in (2, 3):
        spec = parse_pseudogroup("volume:m=%d" % m)
        for l in range(1, 5):
            want = full_symbol_dim(m, l) - math.comb(m + l - 2, l - 1)
            assert symbol_dim(spec, l) == want


def test_isometry_symbols_stop_after_first_order():
    for m in range(2, 6):
        spec = parse_pseudogroup("isometry:n=%d" % m)
        assert symbol_dim(spec, 1) == m * (m - 1) // 2
        assert symbol(spec, 1).dim == m * (m - 1) // 2
        for l in (2, 3):
            assert symbol_dim(spec, l) == 0
        assert prolong(symbol(spec, 1)).dim == 0


def test_materialized_symbols_match_closed_forms():
    for text in ("volume:m=2", "volume:m=3", "complex:nc=1", "complex:nc=2",
                 "symplectic:2n=2", "symplectic:2n=4", "contact:dim=3",
                 "contact:dim=5"):
        spec = parse_pseudogroup(text)
        for l in (1, 2, 3):
            assert symbol(spec, l).dim == symbol_dim(spec, l), (text, l)


def test_symbol_chain_is_closed_under_prolongation():
    for text in ("general:m=2", "volume:m=2", "volume:m=3", "complex:nc=1",
                 "complex:nc=2", "symplectic:2n=2", "symplectic:2n=4",
                 "contact:dim=3", "isometry:n=3"):
        spec = parse_pseudogroup(text)
        for l in (1, 2):
            assert prolong(symbol(spec, l)) == symbol(spec, l + 1), (text, l)


def test_system_builder_validates_as_subcomplex():
    for text in ("volume:m=2", "complex:nc=2", "symplectic:2n=4",
                 "contact:dim=3", "isometry:n=3"):
        sysm = system(parse_pseudogroup(text), 3)
        assert isinstance(sysm, SymbolicSystem)
        for l in (1, 2, 3):
            assert sysm.dim(l) == symbol_dim(parse_pseudogroup(text), l)


def test_volume_claimed_dimension_departs_from_computed_chain():
    spec = parse_pseudogroup("volume:m=2")
    pairs = [(volume_claimed_dim(2, l), symbol_dim(spec, l)) for l in (1, 2, 3)]
    assert pairs == [(3, 3), (6, 4), (8, 5)]
    assert pairs[0][0] == pairs[0][1]
    assert all(c != d for c, d in pairs[1:])


# ---------------------------------------------------------------- caps

def test_symbol_respects_cap():
    with pytest.raises(UnsupportedDegree):
        symbol(parse_pseudogroup("general:m=3"), 3, cap=10)


def test_symbol_cap_refusal_is_cap_exceeded():
    with pytest.raises(CapExceeded):
        symbol(parse_pseudogroup("general:m=3"), 3, cap=10)


def test_cap_env_override(monkeypatch):
    assert materialization_cap() == DEFAULT_CAP
    monkeypatch.setenv("SPENCER_CAP", "17")
    assert materialization_cap() == 17
    assert materialization_cap(99) == 99


def test_negative_cap_is_refused(monkeypatch):
    with pytest.raises(ParamOutOfRange):
        symbol(parse_pseudogroup("general:m=2"), 1, cap=-1)
    assert materialization_cap(0) == 0
    monkeypatch.setenv("SPENCER_CAP", "-5")
    with pytest.raises(ParamOutOfRange):
        materialization_cap()


# ---------------------------------------------------------------- jet families

def test_point_family_dimension_table():
    assert point_lie_total(1, 2, 1, 1) == 13
    assert [point_lie_total(1, 2, 1, l) for l in (1, 2, 3, 4)] == [13, 24, 38, 55]
    assert point_lie_dim(1, 2, 1, 1) == (3, 10)
    assert point_lie_dim(1, 2, 0, 1) == (3, 6)
    assert point_lie_total(2, 2, 2, 1) == 46


def test_scalar_point_family_is_opt_in():
    with pytest.raises(ParamOutOfRange):
        point_lie_total(1, 1, 1, 1)
    assert point_lie_total(1, 1, 1, 1, allow_r1_point_lift=True) == 5
    assert point_lie_total(2, 1, 1, 1, allow_r1_point_lift=True) == 12


def test_contact_family_dimension_table():
    assert [contact_lie_dim(1, 1, l) for l in (1, 2, 3)] == [6, 10, 15]
    assert [contact_lie_dim(2, 1, l) for l in (1, 2, 3)] == [15, 35, 70]
    assert [contact_lie_dim(1, 2, l) for l in (1, 2, 3)] == [8, 13, 19]
    for l in (1, 2, 3, 4):
        assert contact_lie_dim(1, 1, l) == math.comb(l + 3, 2)


def test_growth_ratios_are_exact_fractions():
    assert asymptotic_ratio_point(1, 2, 1, 25) == Fraction(442, 375)
    assert asymptotic_ratio_contact(1, 1, 25) == Fraction(756, 625)


def test_transitivity_dimension_bound():
    sp = parse_pseudogroup("symplectic:2n=4")
    assert dimension_inequality(sp, 1, 10) == (364, 66, True)
    for r in (1, 2, 3):
        for l in (1, 5, 10):
            assert dimension_inequality(sp, r, l)[2]
    cx = parse_pseudogroup("complex:nc=2")
    assert dimension_inequality(cx, 1, 10) == (44, 66, False)


def test_point_family_embeds_with_matching_dimension():
    emb = point_lie_embed(1, 2, 1, 1)
    assert emb.dim == 13
    assert emb.ambient.base_dim == 5
    emb0 = point_lie_embed(1, 2, 0, 1)
    assert emb0.dim == 9
    with pytest.raises(CapExceeded):
        point_lie_embed(1, 2, 1, 2, cap=5)


# ---------------------------------------------------------------- strata

def test_strata_names_and_shapes():
    sp4 = parse_pseudogroup("symplectic:2n=4")
    assert len(stratum_tau(sp4, "lagrangian")) == 2
    assert len(stratum_tau(sp4, "omega-nondegenerate")) == 2
    cx = parse_pseudogroup("complex:nc=2")
    assert stratum_tau(cx, "totally-real") == [[1, 0, 0, 0], [0, 1, 0, 0]]
    assert stratum_tau(cx, "j-invariant-line") == [[1, 0, 0, 0], [0, 0, 1, 0]]
    c3 = parse_pseudogroup("contact:dim=3")
    assert len(stratum_tau(c3, "transversal-to-contact-plane")) == 1
    assert len(stratum_tau(c3, "inside-contact-plane")) == 1
    assert set(STRATUM_NAMES) >= {"lagrangian", "omega-nondegenerate",
                                  "totally-real", "j-invariant-line"}


def test_stratum_kind_mismatch_raises():
    with pytest.raises(ParamOutOfRange):
        stratum_tau(parse_pseudogroup("general:m=3"), "lagrangian")
    with pytest.raises(ParamOutOfRange):
        stratum_tau(parse_pseudogroup("symplectic:2n=4"), "nope")
