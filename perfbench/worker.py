"""One benchmark worker: a single process, no threads, one closed-loop client.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace \
        --src SRC --workdir DIR [--seconds S] [--spans FILE]

The worker imports rnalg from SRC, builds the seeded inputs and prints
"ready" once set-up is done; the parent times set-up from spawn to that
line.  In `run` mode it then runs whole passes over the task list, each
task starting when the previous one ends, until a further pass would
overrun --seconds (and at least the workload's minimum passes).  Answers
are checked against the oracle after the first pass, outside the clock;
later passes must reproduce the first pass's digests.  In `trace` mode it
runs one untraced pass and then one pass under the tracer, both in process
(also for cli), and writes the spans to --spans.
The result is one JSON line on stdout after "ready".
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def _load_rnalg(src: str):
    sys.path.insert(0, src)
    import rnalg

    where = os.path.realpath(os.path.dirname(rnalg.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"rnalg imported from {where}, not from {src}")
    return rnalg


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    _load_rnalg(args.src)
    import workloads

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    ctx = workloads.Context(args.seed, reference)
    in_process = args.mode == "trace" and args.workload == "cli"
    tasks = workloads.build_tasks(args.workload, ctx, args.workdir, in_process)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "run":
        out = run_passes(tasks, args.seconds, workloads.MIN_PASSES[args.workload])
    else:
        from tracer import Tracer

        # one untraced pass run the same way (in process for cli), then one traced
        untraced = run_passes(tasks, 0.0, 1, check=False)
        tracer = Tracer()
        tracer.install()
        out = run_passes(tasks, 0.0, 1, tracer=tracer, check=False)
        tracer.uninstall()
        out["untraced_wall_s"] = untraced["passes"][0]["wall_s"]
        out["layer"] = {k: [v, unit] for k, (v, unit) in tracer.metrics().items()}
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not in_process \
        else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(out, default=str), flush=True)
    return 0


def run_passes(tasks, seconds: float, min_passes: int, tracer=None, check=True) -> dict:
    import workloads

    passes = []
    digests: dict[str, str] = {}
    verdicts: dict[str, tuple | None] = {}
    failures = []
    attempted = failed = failed_known = 0
    clock = time.perf_counter
    begin = clock()
    while True:
        latencies = []
        results = []
        pass_start = clock()
        for task in tasks:
            if tracer is not None:
                tracer.task = task.tid
            t0 = clock()
            try:
                result = task.run()
            except Exception as exc:  # a raise is an answer; the oracle judges it
                result = workloads.Raised(exc)
            latencies.append(clock() - t0)
            results.append(result)
        wall = clock() - pass_start
        if tracer is not None:
            tracer.task = ""
        first = not passes
        passes.append({"wall_s": wall, "latencies": latencies})
        for task, result in zip(tasks, results):
            rec = task.record(result)
            d = workloads.digest(rec)
            attempted += 1
            if first:
                digests[task.tid] = d
                verdicts[task.tid] = _check(task, rec) if check else None
                problem = verdicts[task.tid]
                if problem is not None:
                    failures.append({"task": task.tid, "expected": problem[0],
                                     "got": problem[1], "known_defect": task.known_defect})
            elif d != digests[task.tid]:
                problem = ("the first pass's output", f"digest {d}")
                failures.append({"task": task.tid, "expected": problem[0],
                                 "got": problem[1], "known_defect": None})
            else:
                problem = verdicts[task.tid]
            if problem is not None:
                failed += 1
                if task.known_defect and d == digests[task.tid]:
                    failed_known += 1
        del results
        elapsed = clock() - begin
        if len(passes) >= min_passes and elapsed + wall > seconds:
            break
    return {"tasks": [t.tid for t in tasks], "passes": passes, "digests": digests,
            "failures": failures, "attempted": attempted, "failed": failed,
            "failed_known": failed_known}


def _check(task, rec):
    try:
        return task.check(rec)
    except Exception as exc:  # a record the oracle cannot read is a wrong answer
        return ("a well-formed answer", f"check raised {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
