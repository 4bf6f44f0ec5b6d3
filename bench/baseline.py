"""Run the benchmark over several seeds and record medians, quartiles and spreads.

    python3 bench/baseline.py                      # every workload, 10 seeds, 3 traced
    python3 bench/baseline.py --workloads cli --seeds 5 --trace-seeds 0 --out ''

Each run is a separate ``bench/run.py`` process with its own seed and
the ``run_seconds`` of BENCHMARK.json. For each end-to-end metric the
spread is the distance between the first and third quartile of its
values as a share of their median; it should stay below a third of the
metric's bound. The record (``bench/baseline.json`` by default) also
holds the Python version, the CPU count and why each workload exists.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect results:\n{proc.stderr}")
    return result, wall


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10, help="untraced runs, seeds 0..n-1")
    parser.add_argument("--trace-seeds", type=int, default=3, help="traced runs, seeds 0..n-1")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"),
                        help="where to write the record ('' to skip)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "trace_seeds": args.trace_seeds,
        "workloads": {},
    }
    worst = 0.0
    for name in names:
        entry = {"why": why[name], "end_to_end": {}, "per_layer": {}}
        for trace, seeds, key in ((0, args.seeds, "end_to_end"), (1, args.trace_seeds, "per_layer")):
            values, walls, attempted = {}, [], 0
            for seed in range(seeds):
                result, wall = run(name, seed, seconds, trace)
                walls.append(wall)
                attempted += result["attempted"]
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
            for metric, vals in values.items():
                entry[key][metric] = summarize(vals)
            if seeds:
                entry[f"{key}_wall_s"] = summarize(walls)
                entry[f"{key}_attempted"] = attempted
        print(f"{name}: {entry['end_to_end_attempted']} ops over {args.seeds} runs, "
              f"{entry['end_to_end_wall_s']['median']:.1f} s wall per run")
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- spread above bound/3"
            worst = max(worst, s["spread"] / bounds[metric])
            print(f"  {metric:14} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  spread {100 * s['spread']:6.2f}% (bound {100 * bounds[metric]:g}%){flag}")
        record["workloads"][name] = entry
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
