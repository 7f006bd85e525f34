"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory, never from an installed copy. With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer ones. Every workload runs in
its own single-threaded worker process, one process at a time. Times are
reported at reference speed (see speed.py); the wall times are printed
beside them. setup_s is the median over SETUP_RUNS separate set-ups
(SETUP_RUNS - 1 set-up-only workers plus the measuring worker). Exit 0 when
every output checked out, 1 when one did not, 2 when no result could be
produced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
# named here, not imported: workloads.py imports the program, which run.py
# must not do before it has checked that src/ is there
WORKLOADS = ("roundtrip", "verify-sweep", "certify-curves")
SETUP_RUNS = 5
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(WORKDIR), *extra]
    # a fixed hash seed makes set and dict orders, and so the work, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker ran past the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sizes the fixed op list; a run measures about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cachewright" / "__init__.py").is_file():
        print(f"error: no cachewright sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    WORKDIR.mkdir(exist_ok=True)
    try:
        setups = [] if args.trace else [
            run_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
        result = run_worker(args, [], deadline)
    except (WorkerFailed, ValueError, KeyError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2

    metrics, units = result["metrics"], result["units"]
    if not args.trace:
        metrics["setup_s"] = statistics.median([s["setup_s"] for s in setups]
                                               + [metrics["setup_s"]])
        wall = result["wall"]
        wall["setup_s"] = statistics.median([s["setup_wall_s"] for s in setups]
                                            + [wall["setup_s"]])
    correct = result["wrong"] == 0 and not result.get("trace_problems")
    for problem in result["problems"] + result.get("trace_problems", []):
        print(f"problem: {problem}")
    print(f"{args.workload} seed {args.seed}: {result['ops']} ops attempted, "
          f"{result['failed']} failed")
    if not args.trace:
        print(f"op_tail_s is the p{result['tail_percentile']:.1f} of {result['ops']} "
              f"samples; setup_s is the median of {SETUP_RUNS} set-ups; times are "
              f"at reference speed (see speed.py), wall times in brackets")
    else:
        print(f"{result['spans']} spans written to {result['trace_file']}")
    for name, value in metrics.items():
        plain = f"   (wall: {wall[name]:.6g})" if not args.trace and name in wall else ""
        print(f"  {name} = {value:.6g} {units[name]}{plain}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
