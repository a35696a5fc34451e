"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload corpus_batch --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric the median and the quartile spread (Q3 - Q1) / median, the figure
each metric's bound in ``BENCHMARK.json`` is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    bounds = {}
    config = RUN.parent.parent / "BENCHMARK.json"
    if config.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(config.read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} calls failed")
        print(f"seed {seed}: " + ", ".join(
            f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for key, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        bound = bounds.get(key)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{key:14s} q1 {q1:.6g}  median {med:.6g}  q3 {q3:.6g}  "
              f"spread {(q3 - q1) / med:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
