"""Harness self-test: one timed operation per workload, untraced and traced.

    python3 perfbench/selftest.py

Checks that every run exits 0, that its result line names every metric listed
in BENCHMARK.json with the listed unit, that no operation failed
(fail_ratio = 0) and that the outputs were judged correct.  Prints each
metric name with its unit and value.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--max-ops", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=180, check=False)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.decode()[-1500:]}"
    return json.loads(proc.stdout.decode().strip().splitlines()[-1]), None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, err = run(w["name"], trace)
            label = f"{w['name']} trace={trace}"
            if err:
                problems.append(f"{label}: {err}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(expected):
                problems.append(f"{label}: missing {sorted(set(expected) - set(got))}, "
                                f"unexpected {sorted(set(got) - set(expected))}")
            for name, unit in expected.items():
                if name in got and got[name]["unit"] != unit:
                    problems.append(f"{label}: {name} unit {got[name]['unit']!r}, "
                                    f"expected {unit!r}")
            print(f"{label}: fail_ratio = {result['failed'] / result['attempted']!r}")
            for name in expected:
                if name in got:
                    print(f"  {name} = {got[name]['value']!r} {got[name]['unit']}")
    for p in problems:
        print("PROBLEM: " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
