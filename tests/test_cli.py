"""Command-line front end: outputs, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spencer.catalog import LIE_KINDS, STRATUM_NAMES, _KIND_PARAMS, _STRATA
from spencer.cli import main


def run_json(capsys, argv):
    code = main(argv)
    data = json.loads(capsys.readouterr().out)
    return code, data


def subprocess_env(**extra):
    """os.environ with extra set and this checkout's src first on
    PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI command is its own process, so the import is part of every
    # command's time; dataclasses alone pulls in inspect, ast and dis.
    probe = ("import sys, spencer.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe],
                         env=subprocess_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------- symbols

def test_symbols_planar_hamiltonian(capsys):
    code, data = run_json(capsys, ["symbols", "--group", "symplectic:2n=2",
                                   "--l", "1..5"])
    assert code == 0
    assert [data["table"][str(l)] for l in range(1, 6)] == [3, 4, 5, 6, 7]


def test_symbols_rotations_truncate(capsys):
    code, data = run_json(capsys, ["symbols", "--group", "isometry:n=3"])
    assert code == 0
    assert [data["table"][str(l)] for l in (1, 2, 3)] == [3, 0, 0]


def test_symbols_full_diffeomorphisms(capsys):
    code, data = run_json(capsys, ["symbols", "--group", "general:m=2"])
    assert code == 0
    assert [data["table"][str(l)] for l in (1, 2, 3)] == [4, 6, 8]


def test_symbols_csv_round_trip(capsys):
    code = main(["symbols", "--group", "general:m=2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["l", "dim"]
    assert [ln.split(",")[1] for ln in lines[1:]] == ["4", "6", "8"]


# ---------------------------------------------------------------- cohomology

def test_spencer_table_of_full_symbols_vanishes(capsys):
    code, data = run_json(capsys, ["cohomology", "--group", "general:m=2",
                                   "--table", "spencer", "--l", "1..3"])
    assert code == 0
    assert all(v == 0 for v in data["table"]["cells"].values())


def test_obstruction_row_for_rotations(capsys):
    code, data = run_json(capsys, ["cohomology", "--group", "isometry:n=3",
                                   "--table", "obstruction",
                                   "--flag", "tau=1,0,0", "--l", "1..3"])
    assert code == 0
    cells = data["table"]["cells"]
    assert [cells["%d,0" % l] for l in (1, 2, 3)] == [0, 2, 2]


@pytest.mark.parametrize("group, flag, nonzero", [
    # Without the stat_d (x) W^c part of the stationary cells these read
    # H(d, 1) = 1 for every d, and H(1, 2) = 3.
    ("symplectic:2n=2", "stratum=lagrangian", {}),
    ("isometry:n=3", "tau=1,0,0;0,1,0", {"1,2": 4}),
])
def test_stationary_table_pins_the_stationary_forms(capsys, group, flag,
                                                     nonzero):
    code, data = run_json(capsys, ["cohomology", "--table", "stationary",
                                   "--group", group, "--flag", flag,
                                   "--l", "1..4"])
    assert code == 0
    cells = data["table"]["cells"]
    assert len(cells) == 4 * (flag.count(";") + 2)
    assert {k: v for k, v in cells.items() if v} == nonzero


def test_covariant_table_needs_flag(capsys):
    code = main(["cohomology", "--group", "general:m=2",
                 "--table", "obstruction", "--l", "1..2"])
    assert code == 2


# ---------------------------------------------------------------- covariants

def test_covariant_reports_full_group(capsys):
    code, data = run_json(capsys, ["covariants", "--group", "general:m=2",
                                   "--flag", "tau=1,0", "--l", "1..3"])
    assert code == 0
    rows = data["reports"]
    assert [r["dim_g"] for r in rows] == [4, 6, 8]
    assert [r["dim_stationary"] for r in rows] == [3, 5, 7]
    assert all(r["transversal"] for r in rows)


def test_covariants_with_equation_file(capsys, tmp_path):
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps({
        "ambient": {"m": 2, "n": 1},
        "tau_basis": [[1, 0]],
        "h": {"1": [[1]]},
    }))
    code, data = run_json(capsys, ["covariants", "--group", "general:m=2",
                                   "--flag", "tau=1,0", "--l", "1..3",
                                   "--h-file", str(h_path)])
    assert code == 0
    assert [r["dim_h"] for r in data["reports"]] == [1, 1, 1]


def test_zero_equation_cell_is_precondition_failure(capsys, tmp_path):
    # h_1 = 0 cannot contain the restricted symbol of the complex group, and
    # the cohomology table must say so even though the cell has dimension 0.
    h_path = tmp_path / "h.json"
    h_path.write_text(json.dumps({"ambient": {"m": 4, "n": 2},
                                  "h": {"1": []}}))
    common = ["--group", "complex:nc=2", "--flag", "stratum=totally-real",
              "--l", "1..2", "--h-file", str(h_path)]
    assert main(["covariants"] + common) == 3
    assert main(["cohomology", "--table", "covariant", "--s", "0..0"]
                + common) == 3
    err = capsys.readouterr().err
    assert err.count("precondition failed:") == 2 and "Traceback" not in err


def test_named_stratum_flag(capsys):
    code, data = run_json(capsys, ["covariants", "--group", "symplectic:2n=4",
                                   "--flag", "stratum=lagrangian",
                                   "--l", "1..2"])
    assert code == 0
    assert [r["dim_O"] for r in data["reports"]] == [1, 2]


# ---------------------------------------------------------------- transversality

def test_transversality_scan_output(capsys):
    code, data = run_json(capsys, ["transversality", "--group",
                                   "symplectic:2n=2", "--flag", "tau=1,0",
                                   "--l", "1..3"])
    assert code == 0
    assert [e["transversal"] for e in data["entries"]] == [True, True, True]
    assert [e["stationary_tau_H2_zero"] for e in data["entries"]] == [True] * 3


def test_transversality_requires_full_range(capsys):
    assert main(["transversality", "--group", "symplectic:2n=2",
                 "--flag", "tau=1,0", "--l", "2..3"]) == 2


# ---------------------------------------------------------------- oracle

def test_oracle_point_family(capsys):
    code, data = run_json(capsys, ["oracle", "--group", "point_lie:n=1,r=2,k=1",
                                   "--l", "1..2"])
    assert code == 0
    rows = data["rows"]
    assert [(r["formula"], r["oracle"], r["match"]) for r in rows] == [
        (13, 13, True), (24, 24, True)]


def test_oracle_contact_family(capsys):
    code, data = run_json(capsys, ["oracle", "--group", "contact_lie:n=1,k=1",
                                   "--l", "1..3"])
    assert code == 0
    assert [r["formula"] for r in data["rows"]] == [6, 10, 15]
    assert all(r["match"] for r in data["rows"])


def test_oracle_volume_probe_flags_divergence(capsys):
    code, data = run_json(capsys, ["oracle", "--group", "volume:m=2",
                                   "--l", "1..3"])
    assert code == 0
    assert [r["match"] for r in data["rows"]] == [True, False, False]
    assert [r["formula"] for r in data["rows"]] == [3, 6, 8]
    assert [r["oracle"] for r in data["rows"]] == [3, 4, 5]


def test_oracle_scalar_point_family_is_gated(capsys):
    assert main(["oracle", "--group", "point_lie:n=1,r=1,k=1",
                 "--l", "1..1"]) == 2
    code, data = run_json(capsys, ["oracle", "--group", "point_lie:n=1,r=1,k=1",
                                   "--l", "1..1", "--allow-r1-point-lift"])
    assert code == 0
    assert data["rows"][0]["formula"] == 5


def test_oracle_cap_exit_code(capsys):
    assert main(["oracle", "--group", "point_lie:n=2,r=2,k=2",
                 "--l", "3..3", "--cap", "100"]) == 4


@pytest.mark.parametrize("l, cap, code, message", [
    # l = 0 is refused before order 3's cap of 9520 columns is reached.
    ("0..3", "100", 2, "need n, r, l >= 1"),
    # Order 1 fits; order 2 is the lowest order over the cap.
    ("1..3", "1000", 4, "oracle matrix would have 1680 columns"),
])
def test_oracle_reports_the_lowest_failing_order(capsys, l, cap, code,
                                                 message):
    # The oracle lifts from the highest order down, but it checks the
    # whole range from the lowest order up first.
    assert main(["oracle", "--group", "point_lie:n=2,r=2,k=2",
                 "--l", l, "--cap", cap]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert "9520" not in captured.err
    assert captured.out == ""


def test_full_group_grades_respect_the_cap(capsys):
    # Grade 2 of general:m=3 has ambient dimension 18.
    assert main(["cohomology", "--table", "spencer", "--group",
                 "general:m=3", "--l", "1..2", "--cap", "10"]) == 4
    # Grade 2 of general:m=30 has ambient dimension 13950; the refusal
    # comes before any cell is built.
    assert main(["covariants", "--group", "general:m=30", "--flag",
                 "tau=1" + ",0" * 29, "--l", "3..3"]) == 4
    assert "cap exceeded:" in capsys.readouterr().err


# ---------------------------------------------------------------- tresse

def write_tresse_fixtures(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "n": 1, "r": 1,
        "frame": ["x1 + u"],
        "targets": ["u", "x1"],
    }))
    return poly


def test_tresse_frame_normalization(capsys, tmp_path):
    poly = write_tresse_fixtures(tmp_path)
    code, data = run_json(capsys, ["tresse", "--poly-file", str(poly),
                                   "--seed", "1"])
    assert code == 0
    vals = data["values"]
    assert vals["u"] == ["2/9"]
    assert vals["x1"] == ["7/9"]
    assert data["frame_identity"] == [["1"]]


def test_tresse_singular_frame_exit_code(capsys, tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"n": 1, "r": 1, "frame": ["u"],
                                "targets": ["u"]}))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"values": {"x1": "0", "u": "0",
                                            "p[1,1]": "0"}}))
    assert main(["tresse", "--poly-file", str(poly),
                 "--point-file", str(point)]) == 3


def test_tresse_explicit_point_file(capsys, tmp_path):
    poly = write_tresse_fixtures(tmp_path)
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"values": {"x1": "0", "u": "1",
                                            "p[1,1]": "1/2"}}))
    code, data = run_json(capsys, ["tresse", "--poly-file", str(poly),
                                   "--point-file", str(point)])
    assert code == 0
    assert data["values"]["u"] == ["1/3"]
    assert data["values"]["x1"] == ["2/3"]


# ---------------------------------------------------------------- determinism

def test_reruns_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "run.json"
    argv = ["transversality", "--group", "symplectic:2n=2", "--flag",
            "tau=1,0", "--l", "1..3", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_tresse_rerun_byte_identical(tmp_path, capsys):
    poly = write_tresse_fixtures(tmp_path)
    out = tmp_path / "t.json"
    argv = ["tresse", "--poly-file", str(poly), "--seed", "5",
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("argv", [
    ["cohomology", "--table", "stationary", "--group", "general:m=4",
     "--flag", "tau=1/2,2,1/2,1;-3/4,2,1,2", "--l", "1..3"],
    ["covariants", "--group", "symplectic:2n=4", "--flag",
     "stratum=lagrangian", "--l", "1..3"],
    ["transversality", "--group", "complex:nc=2", "--flag",
     "stratum=totally-real", "--l", "1..3"],
], ids=["stationary", "covariants", "transversality"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # The iteration order of a set of strings follows the hash seed, which
    # only a new process changes; no output may depend on it.
    outs = {subprocess.run([sys.executable, "-m", "spencer.cli", *argv],
                           env=subprocess_env(PYTHONHASHSEED=seed),
                           check=True, capture_output=True).stdout
            for seed in ("1", "2")}
    assert len(outs) == 1


# ---------------------------------------------------------------- errors

def test_unknown_group_is_usage_error(capsys):
    assert main(["symbols", "--group", "projective:m=2"]) == 2


def test_bad_flag_spec_is_usage_error(capsys):
    assert main(["covariants", "--group", "general:m=2",
                 "--flag", "stratum=nope", "--l", "1..1"]) == 2


@pytest.mark.parametrize("option", ["--group", "--l", "--cap", "--out"])
def test_double_dash_value_is_usage_error(capsys, option):
    argv = ["symbols", "--group=general:m=2", "--l=1..2", option + "=--"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-1", "x"])
def test_negative_or_malformed_cap_is_usage_error(capsys, cap):
    argv = ["cohomology", "--table", "spencer", "--group", "complex:nc=1",
            "--l", "1..2", "--cap", cap]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid cap" in capsys.readouterr().err


def test_negative_cap_from_the_environment_is_usage_error(capsys,
                                                          monkeypatch):
    monkeypatch.setenv("SPENCER_CAP", "-1")
    assert main(["cohomology", "--table", "spencer", "--group",
                 "complex:nc=1", "--l", "1..2"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_zero_cap_refuses_every_grade(capsys):
    assert main(["cohomology", "--table", "spencer", "--group",
                 "complex:nc=1", "--l", "1..2", "--cap", "0"]) == 4
    assert "materialization cap 0" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["tresse", "--poly-file", "/nonexistent/p.json"]) == 2


def test_zero_denominator_flag_is_usage_error(capsys):
    code = main(["covariants", "--group", "general:m=5",
                 "--flag", "tau=1/0,0,0,0,0", "--l", "1..1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["tau=1,0,0,0", "tau=1,2"])
def test_wrong_length_flag_row_is_usage_error(capsys, flag):
    code = main(["cohomology", "--table", "restricted", "--group",
                 "general:m=3", "--flag", flag, "--l", "1..2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "tau rows must have length 3" in err


GOOD_POLY = {"n": 1, "r": 1, "frame": ["x1 + u"]}
GOOD_H = {"ambient": {"m": 2, "n": 1}, "h": {"1": [[1]]}}
MALFORMED_FILES = [
    pytest.param("poly", {"n": 1, "r": 1, "frame": ["3/0 * u"]},
                 id="poly-zero-denominator"),
    pytest.param("poly", [GOOD_POLY], id="poly-top-level-list"),
    pytest.param("poly", {"n": 1, "r": 1, "frame": [1]},
                 id="poly-frame-number"),
    pytest.param("point", {"values": {"x1": "1/0", "u": "1",
                                      "p[1,1]": "1/2"}},
                 id="point-zero-denominator"),
    pytest.param("point", {"values": [1]}, id="point-values-list"),
    pytest.param("h", [], id="h-top-level-list"),
    pytest.param("h", dict(GOOD_H, h={"1": [["1/0"]]}),
                 id="h-zero-denominator"),
    pytest.param("h", dict(GOOD_H, ambient=[]), id="h-ambient-list"),
    pytest.param("h", dict(GOOD_H, h={"1": 5}), id="h-grade-number"),
    pytest.param("h", dict(GOOD_H, h=[]), id="h-grades-list"),
    pytest.param("h", dict(GOOD_H, h={"-1": [[1]]}), id="h-negative-grade"),
    pytest.param("h", dict(GOOD_H, h={"1": [[1, 2]]}), id="h-row-length"),
    pytest.param("h", dict(GOOD_H, ambient={"m": 2, "n": 2}),
                 id="h-ambient-mismatch"),
    pytest.param("h", dict(GOOD_H, tau_basis=[[0, 1]]),
                 id="h-tau-basis-mismatch"),
]


@pytest.mark.parametrize("role, doc", MALFORMED_FILES)
def test_malformed_file_is_usage_error(capsys, tmp_path, role, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_POLY))
    argv = {
        "poly": ["tresse", "--poly-file", str(bad)],
        "point": ["tresse", "--poly-file", str(good), "--point-file",
                  str(bad)],
        "h": ["covariants", "--group", "general:m=2", "--flag", "tau=1,0",
              "--l", "1..1", "--h-file", str(bad)],
    }[role]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage error:") and "Traceback" not in err


def test_tresse_without_poly_file_is_usage_error(capsys):
    assert main(["tresse"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--poly-file" in err


def test_degree_zero_covariants_is_usage_error(capsys):
    assert main(["covariants", "--group", "general:m=2", "--flag", "tau=1,0",
                 "--l", "0..1"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_negative_form_degree_is_usage_error(capsys):
    assert main(["cohomology", "--group", "general:m=2", "--s=-1..1",
                 "--l", "1"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_form_range_past_top_degree_is_usage_error(capsys):
    # complex:nc=2 lives on a 4-dimensional model, the flag on a line.
    assert main(["cohomology", "--table", "spencer", "--group",
                 "complex:nc=2", "--s", "5..9", "--l", "1..2"]) == 2
    assert main(["cohomology", "--table", "stationary", "--group",
                 "general:m=2", "--flag", "tau=1,0", "--s", "2..3",
                 "--l", "1..2"]) == 2
    assert "usage error:" in capsys.readouterr().err


def test_failed_cross_check_is_precondition_failure(capsys, monkeypatch):
    import importlib

    from spencer.exactla import Subspace

    # The package exports a function named covariants, hence import_module.
    covariants_module = importlib.import_module("spencer.covariants")
    # A wrong preimage makes the subspace identity disagree with the count.
    monkeypatch.setattr(covariants_module, "preimage",
                        lambda f, s: Subspace.zero(f.domain))
    code = main(["covariants", "--group", "general:m=2",
                 "--flag", "tau=1,0", "--l", "1..1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("precondition failed:") and "Traceback" not in err


def test_any_package_error_is_precondition_failure(capsys, monkeypatch):
    # main maps the package's base error onto exit 3, so an error class
    # that it does not name still exits with a message.
    from spencer import cli
    from spencer.errors import SpencerError

    class Unlisted(SpencerError):
        pass

    def failing(args):
        raise Unlisted("an unlisted package error")

    monkeypatch.setattr(cli, "cmd_symbols", failing)
    code = main(["symbols", "--group", "general:m=2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("precondition failed:") and "Traceback" not in err
    assert "an unlisted package error" in err


def test_main_builds_its_parser_once(capsys, count_calls):
    # Every command of a process parses with one parser, whose subcommands
    # name their handlers; main looks a handler up when it runs it, so a
    # handler patched after the parser was built is the one that runs (as
    # above).
    import argparse
    from spencer import cli

    parser = cli.build_parser()
    built = count_calls(argparse.ArgumentParser, "__init__")
    for argv in (["symbols", "--group", "general:m=2"],
                 ["cohomology", "--group", "general:m=2", "--l", "1..2"]):
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["command"] == argv[0] and "func" not in config
    assert built.total() == 0 and cli.build_parser() is parser


# ---------------------------------------------------------------- grammar fuzz

COMMANDS = [["symbols"], ["covariants"], ["transversality"], ["oracle"]] + [
    ["cohomology", "--table=" + t]
    for t in ("spencer", "restricted", "stationary", "obstruction",
              "covariant")]
# Parameter values each kind accepts.
KIND_VALUES = {
    "general": {"m": (1, 2, 3, 4)}, "volume": {"m": (2, 3, 4)},
    "complex": {"nc": (1, 2)}, "symplectic": {"2n": (2, 4)},
    "contact": {"dim": (3,)}, "isometry": {"n": (2, 3)},
    "point_lie": {"n": (1, 2), "r": (1, 2), "k": (0, 1, 2)},
    "contact_lie": {"n": (1, 2), "k": (1, 2)},
}
GOOD_ENTRIES = ["0", "1", "-1", "2", "1/2", "-3/4"]
BAD_ENTRIES = ["1/0", "x", ""]


@st.composite
def cli_argvs(draw):
    """Command lines over the --group, --flag and --l grammars: mostly
    well formed with small parameters, now and then one wrong piece."""

    def rarely():
        return draw(st.integers(0, 7)) == 0

    command = draw(st.sampled_from(COMMANDS))
    flagged = command[0] not in ("symbols", "oracle")
    kind = draw(st.sampled_from(
        [k for k in KIND_VALUES if not flagged or k not in LIE_KINDS]))
    if rarely():
        kind = draw(st.sampled_from(sorted(_KIND_PARAMS) + ["projective"]))
    params = {name: draw(st.sampled_from(ok))
              for name, ok in KIND_VALUES.get(kind, {}).items()}
    if rarely():
        params = {name: draw(st.integers(-1, 3)) for name in draw(st.lists(
            st.sampled_from(["m", "n", "r", "k", "nc", "2n", "dim"]),
            max_size=3))}
    group = "%s:%s" % (kind, ",".join("%s=%d" % kv for kv in params.items()))
    if rarely():
        group = draw(st.text(alphabet="general:m=,3", max_size=12))

    m = max(1, max(params.values(), default=3))
    m *= 2 if kind == "complex" else 1
    strata = [n for n in STRATUM_NAMES if _STRATA[n][0] == kind]
    if strata and draw(st.booleans()):
        flag = "stratum=" + draw(st.sampled_from(strata))
    else:
        entries = st.sampled_from(GOOD_ENTRIES + BAD_ENTRIES) if rarely() \
            else st.sampled_from(GOOD_ENTRIES)
        width = draw(st.integers(1, 6)) if rarely() else m
        rows = draw(st.lists(st.lists(entries, min_size=width,
                                      max_size=width),
                             min_size=1, max_size=max(1, m - 1)))
        flag = "tau=" + ";".join(",".join(row) for row in rows)
    if rarely():
        flag = draw(st.sampled_from(["stratum=nope", "tau", "sigma=1"]))

    lo = draw(st.integers(-1, 3) if rarely() else st.integers(1, 2))
    l = "%d..%d" % (lo, draw(st.integers(lo - 1, 3)) if rarely()
                    else draw(st.integers(lo, 3)))
    if rarely():
        l = draw(st.text(alphabet="0123.-x", max_size=5))

    argv = command + ["--group=" + group, "--l=" + l, "--cap", "300"]
    if flagged and not rarely():
        argv.append("--flag=" + flag)
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_argvs())
def test_grammar_fuzz_ends_in_a_documented_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue()
