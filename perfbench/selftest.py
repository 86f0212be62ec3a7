#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the checkout root. It checks that:

* an untraced run of every workload emits every end-to-end metric of
  BENCHMARK.json with its unit, and passes its output checks;
* a traced run emits every per-layer metric with its unit;
* a deliberately corrupted result (one served sim counter flipped) is
  caught: the run reports correct=false, counts the miss in `failed`
  (so ok_frac drops below 1) and exits non-zero.
"""

import json
import subprocess
import sys


def run(command, *args):
    proc = subprocess.run(command + list(args), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    return ok


def emits(result, metrics):
    got = result["metrics"] if result else {}
    missing = [m["name"] for m in metrics
               if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    extra = sorted(set(got) - {m["name"] for m in metrics})
    return missing, extra


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    tiny = ["--seed", "1", "--seconds", "1", "--tiny"]
    good = True
    for w in bench["workloads"]:
        code, result, err = run(command, "--workload", w["name"], "--trace", "0", *tiny)
        missing, extra = emits(result, bench["end_to_end"])
        good &= expect(code == 0 and result and result["correct"] and not missing and not extra,
                       f"{w['name']}: untraced run correct, end-to-end metrics "
                       f"(missing {missing}, unexpected {extra})")
        if code != 0:
            sys.stderr.write(err[-2000:])
    code, result, err = run(command, "--workload", bench["workloads"][0]["name"], "--trace", "1", *tiny)
    missing, extra = emits(result, bench["per_layer"])
    good &= expect(code == 0 and result and result["correct"] and not missing and not extra,
                   f"traced run correct, per-layer metrics (missing {missing}, unexpected {extra})")
    code, result, err = run(command, "--workload", "serve-mixed", "--trace", "0", "--corrupt-sim", *tiny)
    caught = (code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1 and result["metrics"]["ok_frac"]["value"] < 1.0)
    good &= expect(caught, "a flipped sim counter is caught and counted as failed")
    sys.exit(0 if good else 1)


if __name__ == "__main__":
    main()
