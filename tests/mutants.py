"""Mutants of ``src/spencer`` that the tests must kill, and their runner.

    python tests/mutants.py [NAME ...]

Each entry changes one exact piece of text in one file of ``src/spencer``
and names the tests that must fail on the change.  The runner copies
``src/`` and ``tests/`` to a temporary directory and first runs every
entry's selection there unchanged: it must pass.  Then, one entry at a
time, it writes the changed file into the copy, runs the selection with
``pytest -x`` and restores the file.  The outcome is ``killed`` when the
selection fails, ``timeout`` when it runs past the entry's timeout and
``survived`` when it passes.

The run fails when an entry's old text is missing from its file or occurs
there more than once, so a change to ``src/`` carries each mutant along
or retires it, and when an outcome is not the entry's expected one:
``killed`` (a ``timeout`` counts as killed, since the selection did not
pass) for every entry but one, kept with a selection too weak to see its
change, which must report ``survived`` to show that the runner can.

pytest does not collect this file: its name does not start with
``test_``.  Names are given with NAME; without any, every entry runs.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/spencer
    old: str
    new: str
    tests: List[str]  # pytest arguments, run from the copy's root
    timeout: float = 120.0
    expect: str = "killed"


COVARIANTS = "tests/test_covariants.py"
SYMBOLIC = "tests/test_symbolic.py"

MUTANTS = [
    # Clearing reads the pivots of the rank at (d - 1, s + 1); with those
    # of (d - 1, s) it drops columns that the incoming image does not kill.
    Mutant("clearing-from-the-wrong-cell", "symbolic.py",
           "cleared = self._pivots.pop((d - 1, s + 1), ())",
           "cleared = self._pivots.pop((d - 1, s), ())",
           [SYMBOLIC, "-k", "coordinate_tables"]),
    Mutant("koszul-sign-dropped", "symbolic.py",
           "yield K_i, [(i, -1 if t % 2 else 1, J_index[K[:t] + K[t + 1:]])",
           "yield K_i, [(i, 1, J_index[K[:t] + K[t + 1:]])",
           [SYMBOLIC, "-k", "coordinate_tables"]),
    Mutant("delta-squared-check-skipped", "symbolic.py",
           "if (d >= 2 and self.top >= 2 and d not in self._squared",
           "if (d < 0 and self.top >= 2 and d not in self._squared",
           [COVARIANTS + "::test_engine_rejects_a_differential_that_does_"
            "not_square_to_zero"]),
    Mutant("restriction-check-skipped", "symbolic.py",
           "            if R_next:\n",
           "            if R_next and False:\n",
           [COVARIANTS + "::test_engine_rejects_cells_that_are_not_"
            "differential_stable"]),
    Mutant("lowering-closure-check-skipped", "symbolic.py",
           "if not lower.contains_vector(low):",
           "if False:",
           [COVARIANTS + "::test_engine_rejects_cells_that_are_not_"
            "differential_stable"]),
    # The check composes the two maps in the primitive bases only after
    # scaling coordinate p by lcm / (pivot entry of row p).
    Mutant("check-without-the-pivot-scale", "symbolic.py",
           "f = lcm // c",
           "f = 1",
           [SYMBOLIC + "::test_delta_squared_check_divides_by_the_pivot_"
            "entries"]),
    Mutant("rank-columns-absolute", "symbolic.py",
           "return {u * wc + J: sign * v for i, sign, J in faces",
           "return {u * wc + J: abs(sign * v) for i, sign, J in faces",
           [SYMBOLIC, "-k", "coordinate_tables"]),
    # Each column filed under the key of its last u instead of its first:
    # the guard in exactla._built refuses it, where elimination at a
    # column that the pivot does not lead need not end.
    Mutant("leads-from-the-last-u", "symbolic.py",
           "first = [[pairs[0][0] * n + n - 1 - i if pairs else past",
           "first = [[pairs[-1][0] * n + n - 1 - i if pairs else past",
           [SYMBOLIC, "-k", "coordinate_tables"], timeout=180.0),
    Mutant("form-restriction-absolute-minors", "covariants.py",
           "if (v := det([[frame[a][c] for c in J] for a in K]))}",
           "if (v := abs(det([[frame[a][c] for c in J] for a in K])))}",
           [COVARIANTS + "::test_flag_tables_are_invariant_under_the_linear_"
            "isotropy"]),
    # At degree 2 the image of g_2's first row that does not restrict to
    # zero is zeroed, so the kernel of the restriction is not closed.
    Mutant("grade-restriction-zeroed-at-degree-2", "covariants.py",
           "        ctx._restrictions[key] = (lam.rows if g.is_full else\n"
           "                                  [lam.apply(row) for row in "
           "g.int_rows])\n",
           "        rows = list(lam.rows if g.is_full else\n"
           "                    [lam.apply(row) for row in g.int_rows])\n"
           "        if d == 2:\n"
           "            k = next(k for k, row in enumerate(rows) if row)\n"
           "            rows[k] = {}\n"
           "        ctx._restrictions[key] = rows\n",
           [COVARIANTS, "-k", "stationary_table_matches_the_per_cell"]),
    # dim (g_l meet sigma) as dim g_l - dim lambda(g_l), rank-nullity,
    # which makes the report's consistency check vacuous.
    Mutant("stationary-dimension-by-rank-nullity", "covariants.py",
           "dim_stat = g_l.dim + sigma.dim - total.dim",
           "dim_stat = g_l.dim - lam_image.dim",
           [COVARIANTS]),
    Mutant("sum-without-back-substitution", "exactla.py",
           "    piv.update(big._piv)\n    _back_substitute(piv)\n",
           "    piv.update(big._piv)\n",
           ["tests/test_exactla.py"]),
    Mutant("covariant-lowering-without-modulo", "covariants.py",
           "return _lowering_table(grade(d), grade(d - 1),\n"
           "                               modulo=restricted_grade(d - 1))",
           "return _lowering_table(grade(d), grade(d - 1))",
           [COVARIANTS, "-k", "covariant"]),
    Mutant("lambda-closure-check-skipped", "covariants.py",
           "            _lowering_table(lam, restricted_grade(d - 1))\n",
           "            pass\n",
           [COVARIANTS + "::test_covariant_table_rejects_a_restricted_"
            "symbol_not_closed_under_lowering"]),
    Mutant("equation-containment-check-skipped", "covariants.py",
           "        if not contains(h, lam):\n"
           "            raise EquationNotInvariant(\n"
           "                \"restricted symbol leaves the equation at "
           "degree %d\" % d)\n",
           "",
           ["tests/test_cli.py::test_zero_equation_cell_is_precondition_"
            "failure"]),
    Mutant("split-n-and-r-swapped", "covariants.py",
           "_ValueSplit([(ctx.n, cx), (ctx.r, kernel)])",
           "_ValueSplit([(ctx.r, cx), (ctx.n, kernel)])",
           [COVARIANTS, "-k", "split_stationary"]),
    Mutant("stationary-tau-split-n-and-r-swapped", "covariants.py",
           "_ValueSplit([(ctx.n, cx), (ctx.r, kernel)])",
           "_ValueSplit([(ctx.n, cx), (ctx.r, kernel)]\n"
           "                       if base is spencer_complex else\n"
           "                       [(ctx.r, cx), (ctx.n, kernel)])",
           [COVARIANTS, "-k", "split_tau_form"]),
    Mutant("kernel-not-sharing-the-square-record", "symbolic.py",
           "cx._maps, cx._squared = self._maps, self._squared",
           "cx._maps = self._maps",
           [COVARIANTS + "::test_full_stationary_table_takes_one_value_"
            "coordinate"]),
    Mutant("framed-lowering-without-the-coefficient", "covariants.py",
           "at[u] = at.get(u, 0) + c * v",
           "at[u] = at.get(u, 0) + v",
           [COVARIANTS + "::test_flag_outputs_do_not_depend_on_the_frame"]),
    Mutant("framed-lowering-absolute-coefficient", "covariants.py",
           "at[u] = at.get(u, 0) + c * v",
           "at[u] = at.get(u, 0) + abs(c) * v",
           [COVARIANTS + "::test_flag_outputs_do_not_depend_on_the_frame"]),
    # The covariant outputs alone restrict along the given rows of tau;
    # with the absolute values of their entries they are wrong only where
    # an entry is negative, off the axis planes.
    Mutant("covariant-restriction-absolute-frame", "covariants.py",
           "    return _restriction(ctx, l, ctx.rho,\n",
           "    return _restriction(ctx, l, [{a: abs(c) for a, c in "
           "r.items()}\n"
           "                                 for r in ctx.rho],\n",
           [COVARIANTS + "::test_flag_tables_are_invariant_under_the_linear_"
            "isotropy"]),
    # The split swap again, with a selection that never takes a split: it
    # must survive, or the runner could not tell a weak selection.
    Mutant("weak-selection-split-n-and-r-swapped", "covariants.py",
           "_ValueSplit([(ctx.n, cx), (ctx.r, kernel)])",
           "_ValueSplit([(ctx.r, cx), (ctx.n, kernel)])",
           [COVARIANTS + "::test_restriction_kernel_dimensions"],
           expect="survived"),
]


def _env(tree: Path) -> dict:
    """The environment that imports spencer from tree's src/ and writes no
    bytecode, which a change of the same size in the same second could
    leave stale."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"),
                PYTHONDONTWRITEBYTECODE="1")


def _run(tree: Path, tests: List[str], timeout: float) -> str:
    """killed, timeout or survived: pytest -x on tests in tree."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=_env(tree), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, start_new_session=True)
    try:
        out = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    if proc.returncode not in (0, 1):
        raise SystemExit("pytest could not run %s (exit %d):\n%s"
                         % (tests, proc.returncode, out.decode()))
    return "survived" if proc.returncode == 0 else "killed"


def main(names: List[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit("no such mutants: %s" % ", ".join(sorted(unknown)))
    start = time.perf_counter()
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp).resolve()
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        imported = subprocess.run(
            [sys.executable, "-c", "import spencer; print(spencer.__file__)"],
            env=_env(tree), capture_output=True, text=True).stdout
        if not imported.startswith(str(tree)):
            raise SystemExit("spencer is imported from %r, not from the copy"
                             % imported.strip())
        for m in chosen:
            text = (tree / "src" / "spencer" / m.file).read_text()
            if text.count(m.old) != 1:
                failed.append(m.name)
                print("%s: old text found %d times in %s"
                      % (m.name, text.count(m.old), m.file))
        if failed:
            return 1
        for tests in dict.fromkeys(tuple(m.tests) for m in chosen):
            if _run(tree, list(tests), 600.0) != "survived":
                print("%s fails on the unchanged tree" % " ".join(tests))
                return 1
        for m in chosen:
            path = tree / "src" / "spencer" / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            began = time.perf_counter()
            try:
                outcome = _run(tree, m.tests, m.timeout)
            finally:
                path.write_text(text)
            ok = (outcome == m.expect
                  or (outcome == "timeout" and m.expect == "killed"))
            if not ok:
                failed.append(m.name)
            print("%-42s %-8s %5.1f s%s" % (m.name, outcome,
                                            time.perf_counter() - began,
                                            "" if ok else "  UNEXPECTED"))
    print("%d mutants in %.0f s; %s" % (
        len(chosen), time.perf_counter() - start,
        "unexpected: " + ", ".join(failed) if failed else "all as expected"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
