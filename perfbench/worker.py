"""One workload process: set up, run the timed ops, print one JSON line.

Started by run.py, one process at a time, never by hand. With --setup-only
it stops after set-up and reports only setup_s, so run.py can take the
median of several set-ups. With --trace 1 it runs the op list untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
"""

import time

T0 = time.perf_counter()  # before the first cachewright import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import stats  # noqa: E402
from checks import CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "peak_rss_mib": "MiB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    return parser.parse_args(argv)


def run_loop(workload, op_span=None):
    """Run every op once, each between two speed probes.

    Returns (wall op times, op times at reference speed, failed, wrong,
    problems). An op that raises is failed; one whose output fails its
    check is failed and wrong. Collection, probes and checks are not timed.
    """
    times, probes, problems = [], [], []
    failed = wrong = 0
    for i, item in enumerate(workload.items):
        error = None
        gc.collect()  # every op starts from the same heap, whatever ran before it
        before = speed.probe()
        t0 = time.perf_counter()
        try:
            if op_span is None:
                result = workload.run(item)
            else:
                with op_span(i):
                    result = workload.run(item)
        except Exception as exc:  # a program fault fails this op; the run goes on
            error = exc
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        probes.append((before + speed.probe()) / 2)
        if error is not None:
            failed += 1
            problems.append(f"op {i} {item}: {type(error).__name__}: {error}")
        else:
            try:
                workload.check(item, result)
            except CheckFailed as exc:
                failed += 1
                wrong += 1
                problems.append(f"op {i} {item}: {exc}")
        result = None  # free this op's output before the next op runs
    return times, speed.scale(times, probes), failed, wrong, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import cachewright

    if Path(cachewright.__file__).resolve().parent != SRC / "cachewright":
        print(f"error: imported cachewright from {cachewright.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    try:
        warm = workload.run(workload.warmup)
        try:
            workload.check(workload.warmup, warm)
            warm_problem = None
        except CheckFailed as exc:
            warm_problem = f"warm-up {workload.warmup}: {exc}"
        setup_wall = time.perf_counter() - T0
        setup_s = setup_wall * speed.REFERENCE_S / speed.probe(speed.SETUP_PROBES)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
            return 0

        times, scaled, failed, wrong, problems = run_loop(workload)
        result = {"ops": len(times), "failed": failed,
                  "wrong": wrong + (warm_problem is not None),
                  "problems": ([warm_problem] if warm_problem else []) + problems}
        if not args.trace:
            tail = stats.tail(scaled)
            if tail is None:
                print(f"error: {len(times)} ops leave no tail", file=sys.stderr)
                return 2
            result["metrics"] = {
                "setup_s": setup_s,
                "ops_per_s": len(scaled) / sum(scaled),
                "op_p50_s": stats.median(scaled),
                "op_tail_s": tail[0],
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            result["units"] = UNITS
            result["tail_percentile"] = tail[1]
            result["wall"] = {"setup_s": setup_wall, "ops_per_s": len(times) / sum(times),
                              "op_p50_s": stats.median(times),
                              "op_tail_s": stats.tail(times)[0]}
        else:
            from tracing import METRICS, Tracer

            tracer = Tracer()
            with tracer.installed():
                _, traced, t_failed, t_wrong, t_problems = run_loop(workload, tracer.op_span)
            result["ops"] += len(workload.items)
            result["failed"] += t_failed
            result["wrong"] += t_wrong
            result["problems"] += t_problems
            result["trace_problems"] = tracer.consistency_problems()
            metrics = dict.fromkeys(METRICS, 0.0)
            metrics.update(tracer.metrics(len(workload.items)))
            metrics.update(workload.reference())
            metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(scaled) - 1.0)
            result["metrics"], result["units"] = metrics, METRICS
            result["spans"] = len(tracer.spans)
            trace_path = workdir / f"trace-{args.workload}-seed{args.seed}.tsv"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path.relative_to(HERE.parent))
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
