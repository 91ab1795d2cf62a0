"""One pass of a workload, in the fresh interpreter that runs this file.

    python3 perfbench/passrun.py SRC_DIR < spec.json

Imports ``spencer.cli`` from SRC_DIR, reads a JSON spec from stdin,
``{"workdir": DIR, "trace": bool, "commands": [[name, argv], ...]}``,
and prints one JSON object with the import time of ``spencer.cli``, the
pass wall time, the peak RSS, each command's exit code and output hash,
and, when traced, the per-layer metrics.  With no commands it only
measures the import.  Every pass starts a new interpreter, so the
``lru_cache``s of ``spencer`` are cold, as they are for a CLI user.
"""

import sys
import time


def _import_cli(src):
    sys.path.insert(0, src)
    start = time.perf_counter()
    import spencer.cli
    setup_s = time.perf_counter() - start
    if not spencer.cli.__file__.startswith(src):
        raise SystemExit("spencer was imported from %s, not from %s"
                         % (spencer.cli.__file__, src))
    return spencer.cli, setup_s


def output_hash(path):
    """sha256 of a command's canonical JSON with the ``config`` block removed.

    ``config`` embeds ``--out`` and the flag text, which differ between runs
    that must agree.
    """
    import hashlib
    import json
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("config", None)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(cli, spec):
    import os
    import resource
    import traceback
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    outs = [os.path.join(spec["workdir"], "%s.json" % name)
            for name, _ in spec["commands"]]
    for out in outs:
        if os.path.exists(out):
            os.remove(out)
    codes, times = [], []
    start = time.perf_counter()
    for (name, argv), out in zip(spec["commands"], outs):
        t0 = time.perf_counter()
        try:
            codes.append(cli.main(list(argv) + ["--out", out]))
        except Exception:  # a traceback is a failed command
            traceback.print_exc()
            codes.append(None)
        times.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [{"name": name, "exit": code, "wall_s": t,
                "sha256": (output_hash(out) if code == 0
                           and os.path.exists(out) else None)}
               for (name, _), out, code, t
               in zip(spec["commands"], outs, codes, times)]
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "commands": results,
            "layers": tracer.metrics() if tracer else None}


def main():
    src = sys.argv[1]
    cli, setup_s = _import_cli(src)
    import json
    spec = json.load(sys.stdin)
    result = run_pass(cli, spec) if spec["commands"] else {}
    result["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
