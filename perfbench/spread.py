#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
named workload (untraced) and prints, per metric, the median and the
distance between the first and third quartiles as a share of the
median -- the figure each metric's bound is judged against.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --workloads serve-mixed
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --save a.json
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --against a.json

`--save` writes every value and digest line; `--against` compares this
set with a saved one: each metric's median may not be worse than the
saved median by more than its bound, and every digest must be equal.
Run from the checkout root. Exits 1 if any run fails, any spread
exceeds a third of its bound (setup_s included), or a comparison fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    digest = [line for line in lines if line.startswith(("digest ", "samples "))]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), digest


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--save", help="write this set's values to a JSON file")
    parser.add_argument("--against", help="compare this set's medians with a saved set")
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)
    record = {}
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        digests = {}
        for seed in args.seeds:
            result, digest = run(bench["command"], workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: failed {result['failed']}")
                bad = True
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            digests[str(seed)] = [line for line in digest if line.startswith("digest ")]
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown} | {' | '.join(digest)}", flush=True)
        record[workload] = {"values": values, "digests": digests}
        before = saved.get(workload)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread < m["bound"] / 3 else "  <-- over a third of bound"
            shift = ""
            if before:
                old = statistics.median(before["values"][m["name"]])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                shift = f" vs saved {old:<12.5g} worse_by={worse:+.4f}"
                if worse > m["bound"]:
                    flag += "  <-- worse than the saved set by more than the bound"
            bad |= bool(flag)
            print(f"  {workload:13s} {m['name']:13s} median={med:<12.5g} spread={spread:.4f} "
                  f"bound={m['bound']}{shift}{flag}")
        if before:
            for seed, lines in digests.items():
                if seed in before["digests"] and before["digests"][seed] != lines:
                    print(f"  {workload} seed {seed}: digest differs from the saved set")
                    bad = True
    if args.save:
        with open(args.save, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
