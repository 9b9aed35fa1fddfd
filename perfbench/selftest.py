#!/usr/bin/env python3
"""Tiny-budget self-test of the benchmark.

Runs every workload of BENCHMARK.json, untraced and traced, at a small
instruction budget (reports are then checked against a first in-process
run instead of the goldens), and checks the output schema: the last line
of standard output is one JSON object with exactly the keys `correct`,
`attempted`, `failed` and `metrics`; the metrics are exactly the
`end_to_end` (untraced) or `per_layer` (traced) names of BENCHMARK.json,
each with its unit and a finite value.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys

INSTS = "20000"


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", str(trace), "--insts", INSTS]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, specs, where):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0, where
    metrics = result["metrics"]
    want = {s["name"]: s["unit"] for s in specs}
    assert set(metrics) == set(want), (where, set(metrics) ^ set(want))
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"}, (where, name)
        assert m["unit"] == want[name], (where, name, m["unit"])
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (where, name)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(bench["command"], w["name"], trace)
            check(result, specs, f"{w['name']} trace={trace}")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                assert not zero, f"end-to-end metrics must never be 0: {zero}"
            print(f"ok {w['name']} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} cells")
    print("selftest passed")


if __name__ == "__main__":
    main()
