"""Benchmark of the spencer CLI: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, both modes

Each pass runs a workload's command list through ``spencer.cli.main`` in a
fresh interpreter (perfbench/passrun.py), one pass at a time, and checks
every output against perfbench/expected.json.  With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of traced passes.  The last line of standard output is the result object.
README.md lists the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, seeded_commands  # noqa: E402

# Import-only interpreters started after each untraced pass, so that set-up
# time is a median of samples spread over the whole run.
SETUP_SAMPLES = 4
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_expected() -> Dict[str, str]:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


IMPORT_TIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+spencer\.(\w+)$")


def _child(spec: Dict) -> Dict:
    """Run passrun.py in a new interpreter and return its JSON result.

    A traced pass runs under ``-X importtime``, and each layer's self time
    is charged with the time its module body took to import, so that a
    layer the workload never calls still shows the time it cost.
    """
    # A fixed hash seed keeps dict and set order, and with it the counters
    # and the timings, the same from run to run.  Bytecode is cached in the
    # run's directory, as an installed package has it, whatever the caller's
    # environment says.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(spec["workdir"], "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    flags = ["-X", "importtime"] if spec.get("trace") else []
    proc = subprocess.run(
        [sys.executable, *flags, os.path.join(HERE, "passrun.py"), SRC],
        input=json.dumps(spec), capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("pass process exited with %d:\n%s"
                         % (proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.splitlines()[-1])
    if spec.get("trace"):
        for line in proc.stderr.splitlines():
            m = IMPORT_TIME.match(line)
            if m and m.group(2) + ".self_s" in result["layers"]:
                result["layers"][m.group(2) + ".self_s"] += int(m.group(1)) / 1e6
    return result


@contextlib.contextmanager
def scratch_dir():
    """A directory for command outputs, removed with everything in it."""
    parent = os.path.join(HERE, ".runs")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _check(passes: List[Dict], expected: Dict[str, str]) -> Dict:
    """Count commands attempted and failed over all passes of a run."""
    attempted = failed = 0
    for p in passes:
        for cmd in p["commands"]:
            attempted += 1
            ok = cmd["exit"] == 0 and cmd["sha256"] == expected.get(cmd["name"])
            failed += not ok
    return {"attempted": attempted, "failed": failed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: Optional[Dict[str, str]] = None) -> Dict:
    """One benchmark run; returns the result object and its details."""
    if not os.path.isfile(os.path.join(SRC, "spencer", "cli.py")):
        raise BenchError("no spencer sources under %s" % SRC)
    if expected is None:
        expected = load_expected()
    cmds, inputs = seeded_commands(workload, seed)
    with scratch_dir() as workdir:
        def one_pass(traced: bool) -> Dict:
            return _child({"workdir": workdir, "trace": traced,
                           "commands": cmds})

        def import_only() -> float:
            return _child({"workdir": workdir, "commands": []})["setup_s"]

        # The first interpreter writes the bytecode cache; it is not timed.
        import_only()
        untraced: List[Dict] = []
        traced: List[Dict] = []
        setup: List[float] = []
        # Rounds run one after another until the next one would end after
        # `seconds`; an untraced run makes at least MIN_PASSES, so that its
        # median passes over one pass slowed by the machine.
        start = time.perf_counter()
        rounds = 0
        while True:
            untraced.append(one_pass(False))
            if trace:
                traced.append(one_pass(True))
            else:
                setup += [import_only() for _ in range(SETUP_SAMPLES)]
            rounds += 1
            elapsed = time.perf_counter() - start
            if (rounds >= (1 if trace else MIN_PASSES)
                    and elapsed * (rounds + 1) / rounds > seconds):
                break

    passes = untraced + traced
    counts = _check(passes, expected)
    correct = counts["failed"] == 0
    if trace:
        metrics = _layer_metrics(untraced, traced)
        counters = [_counters(p["layers"]) for p in traced]
        correct = correct and all(c == counters[0] for c in counters)
    else:
        setup += [p["setup_s"] for p in untraced]
        values = {"wall_s": statistics.median(p["wall_s"] for p in untraced),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    result = {"correct": correct, "attempted": counts["attempted"],
              "failed": counts["failed"], "metrics": metrics}
    details = {"workload": workload, "inputs": inputs, "trace": trace,
               "error_rate": counts["failed"] / counts["attempted"],
               "commands": [{"name": name, "argv": argv}
                            for name, argv in cmds],
               "passes": [{"traced": p["layers"] is not None,
                           "wall_s": p["wall_s"],
                           "command_s": [c["wall_s"] for c in p["commands"]],
                           "exit": [c["exit"] for c in p["commands"]],
                           "sha256": [c["sha256"] for c in p["commands"]]}
                          for p in passes]}
    if trace:
        details["counters"] = counters[0]
    return {"result": result, "details": details}


LAYER_UNITS = {"self_s": "s", "calls": "count", "rows_in": "count",
               "pivots_out": "count", "hits": "count", "misses": "count",
               "lifts": "count", "max_coeff_bits": "bit",
               "cell_useful_ratio": "ratio", "lift_useful_ratio": "ratio",
               "trace_overhead": "ratio"}


def _unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


def _counters(layers: Dict[str, float]) -> Dict[str, float]:
    """The machine-independent part of a traced pass: everything but times."""
    return {k: v for k, v in layers.items() if _unit(k) != "s"}


def _layer_metrics(untraced: List[Dict], traced: List[Dict]) -> Dict:
    values = dict(traced[0]["layers"])
    for name in values:
        if _unit(name) == "s":
            values[name] = statistics.median(p["layers"][name] for p in traced)
    values["trace_overhead"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced))
    return {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}


def _report(seed: int, seconds: float) -> Dict:
    """Every workload, untraced then traced, printed as a table."""
    summary = {}
    for workload in WORKLOADS:
        rows = []
        for trace in (False, True):
            run = run_workload(workload, seed, seconds, trace)
            res, det = run["result"], run["details"]
            if not trace:
                walls = [p["wall_s"] for p in det["passes"]
                         if not p["traced"]]
                q = statistics.quantiles(walls, n=4)
                rows.append(("wall_s.q1", q[0], "s"))
                rows.append(("wall_s.q3", q[2], "s"))
                rows.append(("passes", len(walls), "count"))
                rows.append(("error_rate", det["error_rate"], "ratio"))
            rows += [(k, m["value"], m["unit"])
                     for k, m in res["metrics"].items()]
            summary[workload + (".traced" if trace else "")] = res
        print("== %s  %s" % (workload, json.dumps(det["inputs"])))
        for name, value, unit in sorted(rows):
            print("  %-40s %14.6g %s" % (name, value, unit))
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            print(json.dumps(_report(args.seed, args.seconds)))
            return 0
        run = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(run["details"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
