"""Run every workload of BENCHMARK.json, untraced and traced, on each seed.

    python3 perfbench/run_all.py                       # seeds 0 and 1
    python3 perfbench/run_all.py --seeds 0 --record perfbench/baseline.json \\
        --label "first baseline"

Each run is `perfbench/run.py` in its own process, one after another.  The
report gives every end-to-end metric by name and unit with the failure
counts, the user-facing rate of each command kind, the per-layer metrics
of the traced runs, the tracing overhead (traced round_s over untraced
round_s, minus 1) and the share of command wall time the spans account
for.  The overhead is drowned by run-to-run drift on a noisy host, so the
wrapper cost (spans times the measured cost of one wrapped no-op call,
over command time) is printed beside it.  --record appends all of it to a
JSON list.  The exit code is 1 when
an output check failed or a run reported other metrics than BENCHMARK.json
names.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    path = os.path.join(ROOT, ".perfbench", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--record", default=None, help="JSON list to append to")
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)

    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    runs, ok = [], True
    for seed in args.seeds:
        for w in spec["workloads"]:
            for trace in (0, 1):
                rec = run_one(w["name"], seed, args.seconds, trace)
                got = {k: v["unit"] for k, v in rec["result"]["metrics"].items()}
                if got != expected[trace]:
                    print(f"{w['name']} seed {seed} trace {trace}: metrics differ "
                          f"from BENCHMARK.json", file=sys.stderr)
                    ok = False
                ok = ok and rec["result"]["correct"]
                runs.append(rec)

    by_key = {(r["workload"], r["env"]["seed"], r["trace"]): r for r in runs}
    print("end-to-end (untraced)")
    for r in runs:
        if r["trace"]:
            continue
        res, d = r["result"], r["details"]
        mets = "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                         for k, v in res["metrics"].items())
        print(f"  {r['workload']:<12} seed {r['env']['seed']}: {mets}  "
              f"attempted {res['attempted']} failed {res['failed']} "
              f"(commands {d['commands']}/{d['commands_failed']} failed, "
              f"checks {d['checks']}/{d['checks_failed']} failed)")
    print("user-facing rates (untraced)")
    rate_keys = ("train_steps_per_s", "reconstruct_s", "generate_shapes_per_s",
                 "pairwise_pairs_per_s")
    for r in runs:
        if not r["trace"]:
            rates = "  ".join(f"{k} {r['details'][k]:.6g}" for k in rate_keys
                              if k in r["details"])
            print(f"  {r['workload']:<12} seed {r['env']['seed']}: {rates}")
    print("tracing overhead and span coverage")
    overhead = {}
    for (w, seed, trace), r in by_key.items():
        if trace:
            frac = r["details"]["round_s"] / by_key[(w, seed, 0)]["details"]["round_s"] - 1
            overhead[f"{w}/seed{seed}"] = frac
            print(f"  {w:<12} seed {seed}: overhead {frac:+.2%}  wrapper cost "
                  f"{r['details']['span_cost_frac']:.3%}  span coverage "
                  f"{r['details']['self_time_coverage']:.4f}")
    print("per-layer (traced, per round)")
    traced = [r for r in runs if r["trace"]]
    print("  " + " " * 41 + "".join(f"{r['workload'][:9]:>10}/{r['env']['seed']}"
                                     for r in traced))
    for name, unit in expected[1].items():
        vals = "".join(f"{r['result']['metrics'].get(name, {'value': float('nan')})['value']:>12.5g}"
                       for r in traced)
        print(f"  {name:<34} {unit:<6}{vals}")

    if args.record:
        entries = []
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                entries = json.load(fh)
        entries.append({"label": args.label, "env": runs[0]["env"],
                        "run_seconds": args.seconds, "tracing_overhead": overhead,
                        "runs": [{k: r[k] for k in ("workload", "trace", "details", "result")}
                                 | {"seed": r["env"]["seed"]} for r in runs]})
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
