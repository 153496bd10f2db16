"""Traced satmon CLI process: install the layer wrappers, then run satmon.cli.main.

    python3 satbench/child.py --trace-out FILE -- run batch.json --jobs 2 --out report.json

Writes per-layer totals, counts and the import time to FILE as JSON, and
the raw spans next to it as ``FILE.tsv``.  The exit code is satmon's.
"""

import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layertrace import Tracer  # noqa: E402


def main():
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: child.py --trace-out FILE -- <satmon cli arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    with tracer.root("launcher"):
        t0 = time.perf_counter()
        from satmon import cli

        import_s = time.perf_counter() - t0
        tracer.install()
        try:
            code = cli.main(cli_args)
        finally:
            tracer.uninstall()
    tracer.write(out + ".tsv")
    with open(out, "w", encoding="utf-8") as fh:
        main_thread = tracer.layer_totals(threading.get_ident())
        json.dump({
            "layers": tracer.layer_totals(),
            "counts": dict(tracer.counts),
            "import_s": import_s,
            "launcher_s": main_thread["launcher"]["total_s"],
            "main_thread_wrapped_self_s": sum(
                row["self_s"] for label, row in main_thread.items() if label != "launcher"),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
