"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only]

Imports kirbyfront from the checkout's src/, builds the workload's inputs
from the seed, runs an untimed warm-up, then the timed closed loop, then
the output checks.  The last line of standard output is one JSON object
with the raw figures; run.py turns them into metrics.  With --setup-only
it stops at the first timed operation and reports only when that was.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_package():
    """The kirbyfront modules the workloads call, from SRC only."""
    sys.path.insert(0, str(SRC))
    import kirbyfront
    from kirbyfront import diagram, invariants, moves, ribbon, scripts

    if Path(kirbyfront.__file__).resolve().parent != SRC / "kirbyfront":
        raise SystemExit(f"kirbyfront imported from {kirbyfront.__file__}, not {SRC}")
    return SimpleNamespace(
        diagram=diagram, invariants=invariants, moves=moves, ribbon=ribbon, scripts=scripts
    )


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    kf = load_package()
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](kf, args.seed, args.seconds, ROOT)
    wl.traced = bool(args.trace)
    try:
        wl.setup()
        wl.warmup()
        spans = None
        if args.trace and args.workload != "cli":
            spans = tracer.Tracer()
            spans.install()
            spans.active = True
        first_op_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"first_op_at": first_op_at}))
            return 0
        t0 = time.perf_counter()
        wl.run()
        wall = time.perf_counter() - t0
        if spans is not None:
            spans.active = False
        problems = wl.problems + wl.check()
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        out = {
            "first_op_at": first_op_at,
            "wall_s": wall,
            "lat_ms": [x * 1e3 for x in wl.lat],
            "attempted": len(wl.lat),
            "failed": wl.failed,
            "problems": problems,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        }
        if spans is not None:
            out["functions"] = spans.summary()
            out["counters"] = spans.counters()
            trace_dir = ROOT / "perfbench" / "out"
            trace_dir.mkdir(parents=True, exist_ok=True)
            spans.write(trace_dir / f"trace-{args.workload}-seed{args.seed}.tsv")
        elif args.trace:
            out.update(wl.layer_data())
    finally:
        wl.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
