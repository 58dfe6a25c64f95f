"""``python -m repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py --spans-out FILE -- \\
        --store DIR --port 0

The traced ``dse_query`` run boots the server through this launcher
instead of ``python -m repro serve``.  It installs the wrappers from
``tracing.py`` over the public ``repro.serve`` / ``repro.store`` /
``repro.flow`` entry points, then runs the unmodified ``repro`` CLI.
On shutdown (SIGINT, the server's clean stop) it writes its spans and
the store's final ``stats()`` to ``--spans-out``.  HTTP requests are
numbered in arrival order from -1, the untimed warm-up query; the
client sends one at a time, so that number is the client's op id.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer, install_serve_wrappers, write_json  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--spans-out", required=True)
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.__main__ import main as repro_main

    tracer = Tracer("s")
    seen = install_serve_wrappers(tracer)
    try:
        return repro_main(["serve"] + serve_args)
    finally:
        server = seen["server"]
        stats = server.engine.store.stats() if server is not None else {}
        write_json(args.spans_out, {"spans": tracer.spans, "store_stats": stats})


if __name__ == "__main__":
    sys.exit(main())
