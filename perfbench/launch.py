"""Run one `milnor-forge` invocation, as the console script does.

    python3 perfbench/launch.py [--trace STATS.json] <milnor-forge args...>

The console script is `from milnorforge.cli import main; sys.exit(main())`.
This does the same, so it needs no installed entry point.  With --trace it
first installs the tracer's wrappers and, after main returns, writes the
layer aggregates and the import time of milnorforge.cli to STATS.json.
"""

import json
import sys
import time


def main(argv):
    stats_path = None
    if argv[:1] == ["--trace"]:
        stats_path, argv = argv[1], argv[2:]
    t0 = time.perf_counter()
    import milnorforge.cli
    import_s = time.perf_counter() - t0
    tracer = None
    if stats_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        code = milnorforge.cli.main(argv)
    finally:
        if tracer is not None:
            with open(stats_path, "w") as f:
                json.dump({"import_s": import_s,
                           "layers": tracer.aggregates()}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
