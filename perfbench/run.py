"""rnalg benchmark: one command, seeded inputs, oracle-checked answers.

    python3 perfbench/run.py [--workload complex|solve|cli] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout; rnalg is imported from ./src.
Without --workload all three workloads run, one after another, each in
fresh worker processes (one worker at a time, each a single process with
one closed-loop client).

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s       median over seven fresh workers of spawn -> first task
  wall_s        median time of one pass over the workload's task list
  task_p50_ms   median task latency
  task_tail_ms  highest percentile with >= 10 samples beyond it
  peak_rss_mb   worker peak RSS (cli: largest child command)
  fail_frac     failed / attempted tasks (printed; also in the JSON counts)
--trace 1 adds a separate traced worker and reports the per-layer metrics,
the tracing overhead (traced minus untraced wall time of one pass, both run
in that worker the same way) and whether the traced run's output digests
equal the untraced run's.

Human-readable tables go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Run records (digests,
latencies, failures) and span files are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SETUP_SAMPLES = 7
PROBE_SAMPLES = 5
WORKER_TIMEOUT = 170

import workloads  # noqa: E402  (stdlib only; rnalg is imported by the workers)

UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms",
         "peak_rss_mb": "MB", "fail_frac": "ratio"}
# end-to-end metrics in the JSON line; fail_frac is printed and is
# failed/attempted of the same line
JSON_METRICS = ("setup_s", "wall_s", "task_p50_ms", "task_tail_ms", "peak_rss_mb")


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, src: str, out_dir: str,
          seconds: float = 0.0, spans: str | None = None) -> tuple[float, dict | None]:
    """Run one worker; returns (seconds from spawn to "ready", its result)."""
    workdir = os.path.join(out_dir, f"work-{workload}-{mode}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--src", src, "--workdir", workdir,
           "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RN_BUDGET")}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} {mode} worker timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[workloads.nearest_rank(q, len(sorted_values)) - 1]


def end_to_end(workload: str, seed: int, seconds: float, src: str, out_dir: str) -> dict:
    setups = [spawn(workload, seed, "setup", src, out_dir)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready, res = spawn(workload, seed, "run", src, out_dir, seconds)
    setups.append(ready)
    walls = [p["wall_s"] for p in res["passes"]]
    lat = sorted(x for p in res["passes"] for x in p["latencies"])
    q = workloads.tail_percentile(len(res["tasks"]) * workloads.MIN_PASSES[workload])
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(walls), len(walls)),
        "task_p50_ms": (statistics.median(lat) * 1000, len(lat)),
        "task_tail_ms": (percentile(lat, q) * 1000, len(lat)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "fail_frac": (res["failed"] / res["attempted"], res["attempted"]),
    }
    return {"workload": workload, "seed": seed, "metrics": metrics, "tail_q": q,
            "tasks_per_pass": len(res["tasks"]), "passes": len(walls),
            "attempted": res["attempted"], "failed": res["failed"],
            "failed_known": res["failed_known"], "failures": res["failures"],
            "digests": res["digests"], "setup_samples": setups,
            "latencies": [p["latencies"] for p in res["passes"]], "task_ids": res["tasks"]}


def probe(code: str, src: str) -> float:
    """Median wall time of a child `python -c code` (rnalg importable from src)."""
    env = {k: v for k, v in os.environ.items() if k != "RN_BUDGET"}
    env["PYTHONPATH"] = src
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced(workload: str, seed: int, seconds: float, src: str, out_dir: str) -> dict:
    base = end_to_end(workload, seed, seconds, src, out_dir)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    _, res = spawn(workload, seed, "trace", src, out_dir, spans=spans)
    layer = dict(res["layer"])
    trace_wall = res["passes"][0]["wall_s"]
    untraced_wall = res["untraced_wall_s"]
    interp = probe("pass", src)
    layer["cli.interp_s"] = (interp, "s")
    layer["cli.import_s"] = (probe("import rnalg.cli", src) - interp, "s")
    layer["trace.wall_s"] = (trace_wall, "s")
    layer["trace.overhead_s"] = (trace_wall - untraced_wall, "s")
    mismatched = sorted(t for t, d in res["digests"].items() if base["digests"].get(t) != d)
    base.update(layer=layer, spans=res["spans"], digest_mismatches=mismatched)
    return base


def report(rec: dict, trace: bool) -> None:
    m = rec["metrics"]
    print(f"== {rec['workload']}  seed {rec['seed']}  {rec['tasks_per_pass']} tasks/pass  "
          f"{rec['passes']} passes")
    notes = {
        "setup_s": f"median of {m['setup_s'][1]} set-ups",
        "wall_s": f"median of {m['wall_s'][1]} passes",
        "task_p50_ms": f"{m['task_p50_ms'][1]} samples",
        "task_tail_ms": f"p{rec['tail_q']:g} of {m['task_tail_ms'][1]} samples",
        "peak_rss_mb": "largest child command" if rec["workload"] == "cli" else "worker",
        "fail_frac": f"{rec['failed']} of {rec['attempted']} "
                     f"({rec['failed_known']} known defects)",
    }
    for name, (value, _) in m.items():
        print(f"  {name:<14} {value:>12.4f} {UNITS[name]:<6} {notes[name]}")
    for f in rec["failures"]:
        tag = f"  [known defect: {f['known_defect']}]" if f["known_defect"] else ""
        print(f"  FAILED {f['task']}: expected {f['expected']}; got {f['got']}{tag}")
    if trace:
        print(f"  traced run: {rec['spans']} spans, tracing overhead "
              f"{rec['layer']['trace.overhead_s'][0]:.3f} s, digests "
              f"{'equal' if not rec['digest_mismatches'] else 'DIFFER'} to the untraced run")
        for t in rec["digest_mismatches"]:
            print(f"  DIGEST MISMATCH {t}")
        for name, (value, unit) in rec["layer"].items():
            if value:
                print(f"  {name:<46} {value:>14.6g} {unit}")


def unexpected_failures(rec: dict) -> int:
    return sum(1 for f in rec["failures"] if not f["known_defect"]) + \
        len(rec.get("digest_mismatches", []))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rnalg", "__init__.py")):
        print(f"error: no rnalg sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    chosen = [args.workload] if args.workload else list(workloads.WORKLOADS)
    measure = traced if args.trace else end_to_end
    records = []
    try:
        for w in chosen:
            rec = measure(w, args.seed, args.seconds, src, out_dir)
            records.append(rec)
            report(rec, bool(args.trace))
            path = os.path.join(out_dir, f"run-{w}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rec, fh, indent=1, sort_keys=True, default=str)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for rec in records:
        prefix = "" if args.workload else f"{rec['workload']}."
        if args.trace:
            chosen_metrics = rec["layer"]
        else:
            chosen_metrics = {k: (rec["metrics"][k][0], UNITS[k]) for k in JSON_METRICS}
        for name, (value, unit) in chosen_metrics.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    line = {
        "correct": all(unexpected_failures(r) == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
