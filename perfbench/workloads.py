"""The benchmark's workloads: fixed lists of ``spencer`` CLI commands.

Why each workload exists is written in README.md.  Only ``flag_tables``
uses the seed: it draws a generic 2-plane of ``general:m=5``.  The general
linear group acts transitively on 2-planes, so every such plane gives the
same tables as the axis plane; the expected hash of a generic-plane command
is the hash of the same command on the axis plane.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

AXIS_PLANE = "tau=1,0,0,0,0;0,1,0,0,0"

Command = Tuple[str, List[str]]  # (name in expected.json, CLI argv)


NUMERATORS = [n for n in range(-9, 10) if n]


def generic_plane(seed: int) -> str:
    """``--flag`` text of a seeded 2-plane in Q^5 with an identity block.

    The identity block in the first two columns makes the rank 2 for every
    seed; the other entries have nonzero numerators in [-9, 9] and
    denominators in [1, 9].  A zero entry would put the plane in special
    position: such planes cost 30-50% less on the generic commands, and
    mixing them in would make the time depend on the seed.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(2):
        entries = ["1" if j == i else "0" for j in range(2)]
        entries += [str(Fraction(rng.choice(NUMERATORS), rng.randint(1, 9)))
                    for _ in range(3)]
        rows.append(",".join(entries))
    return "tau=" + ";".join(rows)


def commands(workload: str, plane: str = AXIS_PLANE) -> List[Command]:
    """The command list of a workload; ``plane`` is the generic flag."""
    if workload == "spencer_tables":
        return [
            ("spencer.complex_nc3",
             ["cohomology", "--table", "spencer", "--group", "complex:nc=3",
              "--l", "1..4"]),
            ("spencer.symplectic_2n6",
             ["cohomology", "--table", "spencer", "--group", "symplectic:2n=6",
              "--l", "1..3"]),
        ]
    if workload == "flag_tables":
        return [
            ("stationary.axis",
             ["cohomology", "--table", "stationary", "--group", "general:m=5",
              "--flag", AXIS_PLANE, "--l", "1..4"]),
            ("stationary.generic",
             ["cohomology", "--table", "stationary", "--group", "general:m=5",
              "--flag", plane, "--l", "1..3"]),
            ("restricted.generic",
             ["cohomology", "--table", "restricted", "--group", "general:m=5",
              "--flag", plane, "--l", "1..4"]),
            ("covariants.lagrangian",
             ["covariants", "--group", "symplectic:2n=6",
              "--flag", "stratum=lagrangian", "--l", "1..5"]),
            ("transversality.totally_real",
             ["transversality", "--group", "complex:nc=3",
              "--flag", "stratum=totally-real", "--l", "1..4"]),
            ("covariant.totally_real",
             ["cohomology", "--table", "covariant", "--group", "complex:nc=2",
              "--flag", "stratum=totally-real", "--l", "1..5"]),
        ]
    if workload == "oracle":
        return [
            ("oracle.point",
             ["oracle", "--group", "point_lie:n=2,r=2,k=2", "--l", "1..3"]),
            ("oracle.contact",
             ["oracle", "--group", "contact_lie:n=2,k=2", "--l", "1..3"]),
        ]
    raise KeyError("unknown workload %r" % workload)


WORKLOADS = ("spencer_tables", "flag_tables", "oracle")


def seeded_commands(workload: str, seed: int) -> Tuple[List[Command], Dict]:
    """Commands for one run, and the seeded inputs to record with it."""
    if workload == "flag_tables":
        plane = generic_plane(seed)
        return commands(workload, plane), {"seed": seed, "flag": plane}
    return commands(workload), {"seed": seed}
