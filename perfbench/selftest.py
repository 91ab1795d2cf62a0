"""Tests of the benchmark itself (about three minutes, so kept out of the
default test run of the repository).

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so a plain ``pytest`` run of the
repository does not collect it.
"""

import functools
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import AXIS_PLANE, generic_plane  # noqa: E402


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def reported(result):
    return {k: m["unit"] for k, m in result["metrics"].items()}


@functools.lru_cache(maxsize=None)
def traced_run(workload, seed, repeat=0):
    """One traced run (one untraced and one traced pass); repeat tells
    apart runs that must be separate."""
    return run.run_workload(workload, seed, 0, trace=True)


def test_generic_plane_is_seeded_and_has_an_identity_block():
    assert generic_plane(7) == generic_plane(7)
    assert generic_plane(7) != generic_plane(8)
    for seed in range(50):
        rows = [r.split(",") for r in generic_plane(seed)[len("tau="):].split(";")]
        assert [r[:2] for r in rows] == [["1", "0"], ["0", "1"]]
        assert all(Fraction(x) != 0 for r in rows for x in r[2:])
    assert AXIS_PLANE.startswith("tau=1,0,0,0,0;0,1,")


def test_two_traced_runs_give_identical_counters():
    first = traced_run("flag_tables", 3)
    second = traced_run("flag_tables", 3, repeat=1)
    assert first["result"]["correct"] and second["result"]["correct"]
    assert first["details"]["counters"] == second["details"]["counters"]
    assert first["details"]["counters"]["exactla.echelon.calls"] > 0
    assert reported(first["result"]) == declared("per_layer")


def test_traced_and_untraced_passes_give_identical_hashes():
    passes = traced_run("flag_tables", 3)["details"]["passes"]
    assert [p["traced"] for p in passes] == [False, True]
    assert passes[0]["sha256"] == passes[1]["sha256"]
    assert None not in passes[0]["sha256"]


def test_unseeded_workloads_have_seed_independent_counters():
    for workload in ("spencer_tables", "oracle"):
        a = traced_run(workload, 1)
        b = traced_run(workload, 2)
        assert a["result"]["correct"] and b["result"]["correct"]
        assert a["details"]["counters"] == b["details"]["counters"]


def test_wrong_expected_hash_counts_as_an_error():
    expected = run.load_expected()
    expected["spencer.symplectic_2n6"] = "0" * 64
    out = run.run_workload("spencer_tables", 1, 0, trace=False,
                           expected=expected)
    passes = len(out["details"]["passes"])
    assert out["result"]["correct"] is False
    assert out["result"]["attempted"] == 2 * passes
    assert out["result"]["failed"] == passes
    assert out["details"]["error_rate"] == 0.5
    assert reported(out["result"]) == declared("end_to_end")
