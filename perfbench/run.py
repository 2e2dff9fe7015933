"""Benchmark of kirbyfront, the front-word rewriting engine.

    python3 perfbench/run.py [--workload moves|normalize|ribbon|cli|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; kirbyfront is imported from its src/.
Each workload runs in a process of its own (perfbench/worker.py).  The
command prints the interpreter version, nproc and git SHA, every metric
named in BENCHMARK.json with its unit, and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.  The
exit code is 1 when an output check fails and 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("moves", "normalize", "ribbon", "cli")
SETUP_SAMPLES = 9  # set-ups per run; setup_s is their median
BUDGET_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def git_sha():
    """HEAD of the checkout if it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(args, deadline):
    """Run perfbench/worker.py; return (start time, its JSON result)."""
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} ran past the time budget") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return started, json.loads(out.strip().splitlines()[-1])


def end_to_end(res, setups):
    lat = sorted(res["lat_ms"])
    return {
        "ops_per_s": len(lat) / res["wall_s"],
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": lat[math.ceil(0.9 * len(lat)) - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def per_layer(res):
    n = res["attempted"]
    out = {}
    for name, (calls, self_s) in res["functions"].items():
        out[f"{name}.calls_per_op"] = calls / n
        out[f"{name}.self_ms_per_op"] = self_s * 1e3 / n
        out[f"{name}.self_ms_per_call"] = self_s * 1e3 / calls if calls else 0.0
    c = res["counters"]
    out["moves.normalize.events_removed_per_op"] = c["events_removed"] / n
    base = c["search_children"]
    out["ribbon.dedup_hit_ratio"] = c["dedup_hits"] / base if base else 0.0
    out["ribbon.dedup_base_per_op"] = base / n
    for name in ("interpreter_ms", "import_ms", "command_ms"):
        out[f"cli.{name}"] = res.get("cli", {}).get(name, 0.0)
    out["traced.ops_per_s"] = n / res["wall_s"]
    return out


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            started, res = worker(common + ["--setup-only"], deadline)
            setups.append(res["first_op_at"] - started)
    started, res = worker(common + ["--trace", str(trace)], deadline)
    setups.append(res["first_op_at"] - started)
    metrics = per_layer(res) if trace else end_to_end(res, setups)
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kirbyfront" / "__init__.py").is_file():
        print(f"error: no kirbyfront package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + BUDGET_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    print(f"# python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"git {git_sha()}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            res, values = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ok = not res["problems"]
        correct = correct and ok
        attempted += res["attempted"]
        failed += res["failed"]
        print(f"# {name}: seed {args.seed}, trace {args.trace}, attempted "
              f"{res['attempted']}, failed {res['failed']}, checks "
              f"{'passed' if ok else 'FAILED'}")
        for problem in res["problems"][:20]:
            print(f"#   {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        for m in wanted:
            value = values[m["name"]]
            print(f"{prefix}{m['name']} {value:.6g} {m['unit']}")
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
