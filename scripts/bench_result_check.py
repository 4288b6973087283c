#!/usr/bin/env python3
"""Check the stdout of one lambbench run, read from stdin.

    out=$(python3 lambbench/run.py --workload warm-serve --seed 1 \\
      --seconds 4 --trace 1)
    echo "$out" | python3 scripts/bench_result_check.py --per-layer

The last line must be the result object: JSON with "correct": true. With
--per-layer (for a --trace 1 run, which runs every workload) it must also
carry a finite value for every per_layer metric that BENCHMARK.json names.
Exits 1 with the reasons on stderr otherwise.
"""
import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problems(lines, per_layer):
    if not lines:
        return ["no output"]
    last = lines[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON ({e}): {last[:200]!r}"]
    if not isinstance(result, dict):
        return [f"last line is not a JSON object: {last[:200]!r}"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    if per_layer:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        metrics = result.get("metrics") or {}
        for name in names:
            value = (metrics.get(name) or {}).get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                found.append(f"per-layer metric {name}: {value!r}")
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-layer", action="store_true",
                        help="require every BENCHMARK.json per_layer metric")
    args = parser.parse_args()
    found = problems(sys.stdin.read().splitlines(), args.per_layer)
    for p in found:
        print(f"bench_result_check: {p}", file=sys.stderr)
    if found:
        return 1
    print("bench_result_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
