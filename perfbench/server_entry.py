"""The benchmark's HTTP server child: ``repro.service.http.serve`` on an
ephemeral port.

Usage: ``python3 perfbench/server_entry.py --trace 0|1 --dir PASS_DIR``.
Prints ``{"port": N}`` once listening, serves until its standard input
closes, then shuts down and prints ``{"peak_rss_mb": ..., "wrappers_left":
...}``.  With ``--trace 1`` it installs the span wrappers before serving
and writes its spans to ``PASS_DIR`` at exit.
"""

import argparse
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    from passes import peak_rss_mb
    from repro.service.http import serve

    server = serve(host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, name="bench-server")
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    sys.stdin.read()
    server.shutdown()
    thread.join()
    server.server_close()
    server.scheduler.close()
    final = {"peak_rss_mb": peak_rss_mb(), "wrappers_left": 0}
    if tracer is not None:
        tracer.dump(str(Path(args.dir) / f"spans-{os.getpid()}.json"))
        tracer.uninstall()
        final["wrappers_left"] = len(tracer.leftovers())
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
