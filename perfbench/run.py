"""Benchmark of the sdfshapes CLI: one workload, one closed-loop client.

    python3 perfbench/run.py --workload reconstruct --seed 0 --seconds 25 --trace 0

Run from anywhere; the program measured is the one under src/ next to this
directory.  The inputs come from --seed.  The workload is set up several
times (the median is setup_s), then rounds of `sdfshapes.cli.main(argv)`
run in-process, each starting after the previous one returned, until
--seconds have passed.  Every round's outputs are checked.  The thread
settings are the ones a user gets: CLI defaults, no BLAS override.

--trace 0 reports the end-to-end metrics; --trace 1 swaps the layer
boundaries for timing wrappers and reports per-layer metrics instead.  The
last stdout line is the JSON result; the lines before it, and the file
.perfbench/results/<workload>-seed<n>-trace<t>.json, also give the
environment and the user-facing rate of each command kind.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0   # cheap set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 500
E2E_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MiB"}


def unit_of(metric):
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def _setup(wl, work):
    """Set up repeatedly; return (times, identical) where identical says
    every repeat produced byte-identical input files."""
    times, first, identical, previous = [], None, True, None
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        d = os.path.join(work, f"setup{len(times)}")
        os.mkdir(d)
        t0 = time.perf_counter()
        files = wl.setup(d)
        times.append(time.perf_counter() - t0)
        contents = []
        for path in files:
            with open(path, "rb") as fh:
                contents.append(fh.read())
        if first is None:
            first = contents
        identical = identical and contents == first
        if previous is not None:
            shutil.rmtree(previous)
        previous = d
    return times, identical


def measure(wl, work, seconds, recorder):
    """Closed-loop rounds for `seconds`, then the output checks of every
    completed round; returns the run's bookkeeping.  Peak RSS is read
    before the checks, whose own allocations must not count."""
    from tracing import ROOT_SPAN
    from workloads import run_cli
    r = {"round_s": [], "times": defaultdict(list), "rounds": 0,
         "commands": 0, "commands_failed": 0, "checks": 0, "checks_failed": 0}
    done = []
    start = time.perf_counter()
    while r["rounds"] == 0 or time.perf_counter() - start < seconds:
        i = r["rounds"]
        r["rounds"] += 1
        out = os.path.join(work, f"round{i}")
        os.mkdir(out)
        wall = 0.0
        for kind, argv in wl.commands(i, out):
            r["commands"] += 1
            t0 = time.perf_counter()
            try:
                with recorder.span(ROOT_SPAN) if recorder else nullcontext():
                    rc = run_cli(argv)
            except Exception:
                traceback.print_exc()
                rc = None
            dt = time.perf_counter() - t0
            if rc != 0:
                print(f"round {i}: sdfshapes {' '.join(argv)} -> {rc}", file=sys.stderr)
                r["commands_failed"] += 1
                break
            r["times"][kind].append(dt)
            wall += dt
        else:
            r["round_s"].append(wall)
            done.append((i, out))
    r["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, out in done:
        r["checks"] += 1
        try:
            problems = wl.check(i, out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        for p in problems:
            print(f"round {i}: check failed: {p}", file=sys.stderr)
        r["checks_failed"] += bool(problems)
    return r


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sdfshapes", "cli.py")):
        print(f"error: no sdfshapes sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import sdfshapes.field
    import tracing
    from env import environment
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    base = os.path.join(ROOT, ".perfbench")
    for sub in ("work", "results", "traces"):
        os.makedirs(os.path.join(base, sub), exist_ok=True)
    env = environment(ROOT, args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(base, "work"))
    try:
        setup_times, identical = _setup(wl, work)
        recorder = tracing.Recorder() if args.trace else None
        with tracing.installed(recorder) if recorder else nullcontext([]) as missing:
            r = measure(wl, work, args.seconds, recorder)
    finally:
        shutil.rmtree(work)
    for name in missing:
        print(f"trace: boundary {name} does not exist; its metrics are absent",
              file=sys.stderr)
    if not r["round_s"]:
        print("error: no round completed", file=sys.stderr)
        return 1

    details = {
        "setup_s": statistics.median(setup_times), "setup_repeats": len(setup_times),
        "round_s": statistics.median(r["round_s"]), "rounds": r["rounds"],
        "commands": r["commands"], "commands_failed": r["commands_failed"],
        # one more check: the set-up repeats wrote byte-identical files
        "checks": r["checks"] + 1, "checks_failed": r["checks_failed"] + (not identical),
        "peak_rss_mb": r["peak_rss_mb"],
        **wl.summary(r["times"]),
        "command_s": r["times"],
    }
    if recorder:
        present = {b[2] for b in tracing.BOUNDARIES
                   if f"{b[0]}.{b[1]}" not in missing} | {tracing.ROOT_SPAN}
        metrics = tracing.layer_metrics(recorder.spans, r["rounds"],
                                      getattr(sdfshapes.field, "_BLOCK", 1024), present)
        details["self_time_coverage"] = tracing.self_time_coverage(
            recorder.spans, sum(r["round_s"]))
        details["span_cost_frac"] = (tracing.span_cost_s() * len(recorder.spans)
                                     / sum(r["round_s"]))
        recorder.write(os.path.join(
            base, "traces", f"{args.workload}-seed{args.seed}.spans.json"))
    else:
        metrics = {k: details[k] for k in E2E_UNITS}
    attempted = details["commands"] + details["checks"]
    failed = details["commands_failed"] + details["checks_failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}

    with open(os.path.join(base, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "details": details,
                   "result": result}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
