"""Write perfbench/expected.json: one output hash per benchmark command.

    python3 perfbench/record_expected.py

Runs every workload's commands once, with the axis plane in place of the
seeded generic plane, and stores the hash of each output.  Rerun it only
when a change to the program is meant to change its output.
"""

import json
import os
import sys

import run
from workloads import WORKLOADS, commands


def main() -> int:
    expected = {}
    for workload in WORKLOADS:
        cmds = commands(workload)
        with run.scratch_dir() as workdir:
            result = run._child({"workdir": workdir, "trace": False,
                                 "commands": cmds})
        for cmd in result["commands"]:
            if cmd["exit"] != 0:
                print("%s exited with %s" % (cmd["name"], cmd["exit"]),
                      file=sys.stderr)
                return 1
            expected[cmd["name"]] = cmd["sha256"]
    with open(os.path.join(run.HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
