"""Deterministic command-line front end.

Subcommands:

* symbols        -- symbol dimensions per degree for a pseudogroup
* cohomology     -- cohomology tables (spencer | restricted | stationary |
                    obstruction | covariant), cells keyed sym,form degree
* covariants     -- per-degree covariant reports for a flag
* transversality -- covariant scan with the classification flags
* oracle         -- closed-form vs brute-force dimension comparison
* tresse         -- invariant-derivative evaluation at a rational point

JSON output is canonical: sorted keys, embedded run configuration,
artifact version and seed; rerunning the same configuration produces
byte-identical files.  CSV is a lossy flat projection.  Exit codes:
0 success, 2 usage error, 3 precondition failure, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import __version__
from .errors import CapExceeded, ParamOutOfRange, SpencerError
from .exactla import Subspace, TensorShape
from .symbolic import CohomologyTable, SymbolicSystem, spencer_complex
from .covariants import (CovariantReport, FlagContext, covariant_complex,
                         covariants, stationary_row_complex,
                         tau_form_complex, transversality_scan)
from .catalog import (PseudogroupSpec, contact_lie_dim, parse_pseudogroup,
                      point_lie_total, stratum_tau, symbol_dim, system,
                      volume_claimed_dim)
from .jetcalc import (JetPoint, RationalLCG, TresseFrame, check_symbol_oracle,
                      parse_jet_polynomial, parse_variable, symbol_oracle,
                      tresse)

USAGE_ERRORS = (ParamOutOfRange, ValueError, KeyError)


def _parse_range(text: str, least: int) -> Tuple[int, int]:
    """LO..HI (or one degree) with least <= LO <= HI."""
    lo, sep, hi = text.partition("..")
    a = int(lo)
    b = int(hi) if sep else a
    if b < a:
        raise ParamOutOfRange("empty range %r" % text)
    if a < least:
        raise ParamOutOfRange("range %r starts below %d" % (text, least))
    return a, b


def _cap(text: str) -> int:
    """A --cap value: an integer of at least 0."""
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(
            "invalid cap %r: need an integer >= 0" % text)
    return cap


def _rational(value: object) -> Fraction:
    """A rational from a JSON number or string such as "-3/4"."""
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ParamOutOfRange("zero denominator in %r" % (value,)) from None


def _json(value, kind: type, what: str):
    """value, when it has the documented JSON type kind."""
    if not isinstance(value, kind):
        raise ParamOutOfRange("%s must be a %s" % (what, kind.__name__))
    return value


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return _json(json.load(fh), dict, path)


def _rational_rows(value, what: str) -> List[List[Fraction]]:
    return [[_rational(v) for v in _json(row, list, what)]
            for row in _json(value, list, what)]


def _parse_flag(text: str, spec: PseudogroupSpec) -> FlagContext:
    key, eq, val = text.partition("=")
    if not eq:
        raise ParamOutOfRange("flag must be stratum=<name> or tau=<rows>")
    m = spec.ambient_dim
    if key == "stratum":
        return FlagContext(m, stratum_tau(spec, val.strip()))
    if key == "tau":
        tau = [[_rational(x) for x in row.split(",")]
               for row in val.split(";")]
        if any(len(row) != m for row in tau):
            raise ParamOutOfRange("tau rows must have length %d" % m)
        return FlagContext(m, tau)
    raise ParamOutOfRange("unknown flag key %r" % key)


def _load_h_system(path: str, ctx: FlagContext) -> SymbolicSystem:
    doc = _load_json(path)
    amb = _json(doc.get("ambient", {}), dict, "h-file ambient")
    if amb.get("m") != ctx.m or amb.get("n") != ctx.n:
        raise ParamOutOfRange("h-file ambient (m, n) does not match the flag")
    if "tau_basis" in doc:
        given = _rational_rows(doc["tau_basis"], "h-file tau basis")
        if tuple(map(tuple, given)) != ctx.tau:
            raise ParamOutOfRange("h-file tau basis does not match the flag")
    grades: Dict[int, Subspace] = {}
    for key, rows in _json(doc.get("h", {}), dict, "h-file h").items():
        l = int(key)
        if l < 0:
            raise ParamOutOfRange("h-file grade %d is negative" % l)
        shape = TensorShape(ctx.n, l, 0, ctx.r)
        given = _rational_rows(rows, "h-file grade")
        if any(len(row) != shape.dim for row in given):
            raise ParamOutOfRange("h-file grade %d rows must have length %d"
                                  % (l, shape.dim))
        grades[l] = Subspace.from_dense(shape, given)
    return SymbolicSystem(ctx.n, ctx.r, grades)


def _emit(args, payload: Dict[str, object],
          csv_header: List[str], csv_rows: List[List[object]]) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    if args.format == "json":
        doc = {"version": __version__, "config": config}
        doc.update(payload)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_symbols(args) -> int:
    spec = parse_pseudogroup(args.group)
    lo, hi = _parse_range(args.l, 0)
    dims = {l: symbol_dim(spec, l, args.allow_r1_point_lift)
            for l in range(lo, hi + 1)}
    payload = {"group": str(spec),
               "table": {str(l): d for l, d in dims.items()}}
    rows = [[l, dims[l]] for l in range(lo, hi + 1)]
    _emit(args, payload, ["l", "dim"], rows)
    return 0


def _require_flag(args, spec) -> FlagContext:
    if not args.flag:
        raise ParamOutOfRange("this table needs --flag")
    return _parse_flag(args.flag, spec)


def cmd_cohomology(args) -> int:
    spec = parse_pseudogroup(args.group)
    lo, hi = _parse_range(args.l, 1)
    gsys = system(spec, hi + 1, args.cap)
    s_lo, s_hi = _parse_range(args.s, 0) if args.s else (0, gsys.base_dim)
    table = args.table
    ctx = None if table == "spencer" else _require_flag(args, spec)
    top = gsys.base_dim if ctx is None else ctx.n
    if s_lo > top:
        raise ParamOutOfRange("form degrees from %d exceed the top degree %d"
                              % (s_lo, top))
    s_hi = min(s_hi, top)
    hsys = _load_h_system(args.h_file, ctx) \
        if args.h_file and table in ("obstruction", "covariant") else None
    if table == "obstruction":
        cells = {(l, 0): covariants(ctx, gsys.grade(l),
                                    hsys.grade(l) if hsys else None).dim_O
                 for l in range(lo, hi + 1)}
        tab = CohomologyTable("obstruction-dims", cells)
    else:
        if table == "spencer":
            cx = spencer_complex(gsys)
        elif table == "covariant":
            cx = covariant_complex(ctx, gsys, hsys)
        elif table == "restricted":
            cx = tau_form_complex(ctx, gsys, stationary=False)
        else:
            cx = stationary_row_complex(ctx, gsys)
        tab = cx.table(range(lo, hi + 1), range(s_lo, s_hi + 1), table)
    payload = {"group": str(spec), "table": tab.to_jsonable()}
    rows = [[i, j, v] for (i, j), v in sorted(tab.cells.items())]
    _emit(args, payload, ["sym_degree", "form_degree", "dim"], rows)
    return 0


REPORT_FIELDS = list(CovariantReport._fields)


def cmd_covariants(args) -> int:
    spec = parse_pseudogroup(args.group)
    ctx = _require_flag(args, spec)
    lo, hi = _parse_range(args.l, 1)
    gsys = system(spec, hi, args.cap)
    hsys = _load_h_system(args.h_file, ctx) if args.h_file else None
    reports = []
    for l in range(lo, hi + 1):
        h_l = hsys.grade(l) if hsys else None
        reports.append(covariants(ctx, gsys.grade(l), h_l).to_jsonable())
    payload = {"group": str(spec), "reports": reports}
    rows = [[rep.get(f, "") for f in REPORT_FIELDS] for rep in reports]
    _emit(args, payload, REPORT_FIELDS, rows)
    return 0


def cmd_transversality(args) -> int:
    spec = parse_pseudogroup(args.group)
    ctx = _require_flag(args, spec)
    lo, hi = _parse_range(args.l, 1)
    if lo != 1:
        raise ParamOutOfRange("the scan always starts at degree 1")
    gsys = system(spec, hi, args.cap)
    hsys = _load_h_system(args.h_file, ctx) if args.h_file else None
    entries = [e.to_jsonable() for e in
               transversality_scan(ctx, gsys, hsys, hi)]
    payload = {"group": str(spec), "entries": entries}
    header = REPORT_FIELDS + ["stationary_tau_H2_zero", "restricted_H1_zero"]
    rows = [[e.get(f, "") for f in header] for e in entries]
    _emit(args, payload, header, rows)
    return 0


def cmd_oracle(args) -> int:
    spec = parse_pseudogroup(args.group)
    lo, hi = _parse_range(args.l, 0)
    if spec.kind == "point_lie":
        n, r, k = (spec.param(p) for p in ("n", "r", "k"))
        family, formula = ("point", n, r, k), (
            lambda l: point_lie_total(n, r, k, l, args.allow_r1_point_lift))
    elif spec.kind == "contact_lie":
        n, k = spec.param("n"), spec.param("k")
        family, formula = ("contact", n, 1, k), (
            lambda l: contact_lie_dim(n, k, l))
    elif spec.kind == "volume":
        m = spec.param("m")
        family, formula = None, lambda l: volume_claimed_dim(m, l)
    else:
        raise ParamOutOfRange(
            "oracle compares point_lie, contact_lie or volume groups")
    orders = range(lo, hi + 1)
    refs, found = {}, {}
    # Every order is checked, lowest first, before anything is lifted, so
    # a failing range reports its lowest failing order.
    for l in orders:
        refs[l] = formula(l)
        if family is None:
            found[l] = symbol_dim(spec, l)
        else:
            check_symbol_oracle(*family, l, cap=args.cap)
    if family is not None:
        # Highest order first: its lifts, stored truncated at that order,
        # serve every lower order without lifting again.
        for l in reversed(orders):
            found[l] = symbol_oracle(*family, l, cap=args.cap)
    rows = [{"l": l, "formula": refs[l], "oracle": found[l],
             "match": refs[l] == found[l]} for l in orders]
    payload = {"group": str(spec), "rows": rows}
    table = [[r["l"], r["formula"], r["oracle"], r["match"]] for r in rows]
    _emit(args, payload, ["l", "formula", "oracle", "match"], table)
    return 0


def _var_name(v) -> str:
    if v[0] == "x":
        return "x%d" % (v[1] + 1)
    if not any(v[2]):
        return "u%d" % (v[1] + 1)
    return "p[%d,(%s)]" % (v[1] + 1, ",".join(str(s) for s in v[2]))


def cmd_tresse(args) -> int:
    if not args.poly_file:
        raise ParamOutOfRange("tresse needs --poly-file")
    doc = _load_json(args.poly_file)
    n, r = _json(doc["n"], int, "n"), _json(doc["r"], int, "r")
    frame_src = [_json(f, str, "frame entry")
                 for f in _json(doc["frame"], list, "frame")]
    target_src = [_json(t, str, "targets entry")
                  for t in _json(doc.get("targets", []), list, "targets")]
    frame_polys = [parse_jet_polynomial(s, n, r) for s in frame_src]
    targets = [parse_jet_polynomial(s, n, r) for s in target_src]
    order = max(f.k_max for f in frame_polys + targets) + 1 \
        if frame_polys + targets else 1
    if args.point_file:
        values = {parse_variable(k, n, r): _rational(v) for k, v in
                  _json(_load_json(args.point_file)["values"], dict,
                        "point-file values").items()}
        point = JetPoint(n, r, order, values)
    else:
        point = JetPoint.random(n, r, order, RationalLCG(args.seed))
    frame = TresseFrame(frame_polys, point)
    identity = [[str(c) for c in tresse(f, frame)] for f in frame_polys]
    evaluated = {target_src[i]: [str(c) for c in tresse(t, frame)]
                 for i, t in enumerate(targets)}
    payload = {
        "point": {_var_name(v): str(val)
                  for v, val in sorted(point.assignments.items())},
        "jacobian": [[str(c) for c in row] for row in frame.jacobian],
        "frame_identity": identity,
        "values": evaluated,
    }
    rows = []
    for i, src in enumerate(frame_src):
        for comp, val in enumerate(identity[i]):
            rows.append(["frame:" + src, comp + 1, val])
    for src in target_src:
        for comp, val in enumerate(evaluated[src]):
            rows.append([src, comp + 1, val])
    _emit(args, payload, ["function", "component", "value"], rows)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spencer",
        description="Exact symbol, cohomology and jet-calculus tables "
                    "for transitive pseudogroups.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, flag=False, hfile=False, group=True):
        p.add_argument("--group", required=group, default=None,
                       help="pseudogroup spec, e.g. symplectic:2n=4")
        p.add_argument("--l", default="1..3",
                       help="degree or range, e.g. 2 or 1..5")
        p.add_argument("--s", default=None,
                       help="form-degree range for tables")
        if flag:
            p.add_argument("--flag", default=None,
                           help="stratum=<name> or tau=<rows ';'-separated, "
                                "entries ','-separated>")
        if hfile:
            p.add_argument("--h-file", dest="h_file", default=None,
                           help="JSON equation file")
        p.add_argument("--cap", type=_cap, default=None,
                       help="materialization cap override")
        p.add_argument("--allow-r1-point-lift", action="store_true",
                       dest="allow_r1_point_lift")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("symbols", help="symbol dimension table")
    common(p)
    p.set_defaults(func=cmd_symbols)

    p = sub.add_parser("cohomology", help="cohomology tables")
    common(p, flag=True, hfile=True)
    p.add_argument("--table", default="spencer",
                   choices=("spencer", "restricted", "stationary",
                            "obstruction", "covariant"))
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("covariants", help="covariant reports per degree")
    common(p, flag=True, hfile=True)
    p.set_defaults(func=cmd_covariants)

    p = sub.add_parser("transversality", help="covariant scan with flags")
    common(p, flag=True, hfile=True)
    p.set_defaults(func=cmd_transversality)

    p = sub.add_parser("oracle", help="formula vs brute-force dims")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("tresse", help="invariant derivative evaluation")
    common(p, group=False)
    p.add_argument("--poly-file", dest="poly_file", default=None,
                   help="JSON with n, r, frame[], targets[]")
    p.add_argument("--point-file", dest="point_file", default=None,
                   help="JSON with values{var: rational}")
    p.set_defaults(func=cmd_tresse)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        # argparse reads "--opt=--" as an empty list of values.
        if isinstance(value, list):
            parser.error("argument --%s: expected one argument"
                         % dest.replace("_", "-"))
    try:
        return args.func(args)
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 4
    except USAGE_ERRORS as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except SpencerError as exc:
        # Every other package error is a failed precondition.
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
