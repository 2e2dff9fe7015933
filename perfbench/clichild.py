"""The kirbyfront command line under the tracer, for the traced cli run.

    PERFBENCH_TRACE_OUT=<file> python3 perfbench/clichild.py <cli arguments>

behaves as ``python -m kirbyfront.cli <cli arguments>`` and, on the way
out, writes the per-function summary of the spans and the time spent in
the command itself (after start-up and import) to <file>.
"""

import os
import sys
import time

import tracer

import kirbyfront.cli as cli


def main():
    t = tracer.Tracer()
    t.install()
    t.active = True
    t0 = time.perf_counter()
    try:
        return cli.main(sys.argv[1:])
    finally:
        t.active = False
        t.command_s = time.perf_counter() - t0
        tracer.dump(t, os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
