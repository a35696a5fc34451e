"""Self-test: the traced run's count metrics repeat exactly.

    python3 perfbench/selftest.py --seed 1

Makes two traced runs per workload on the same seed, each in a fresh
process, and compares every metric that counts work (calls, cliques,
tableau cells, table entries, scenarios, bytes and the ratios built from
them).  Times and ``trace.*`` are expected to differ.  Exits 1 on any
difference or failed call.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def is_count(name: str, unit: str) -> bool:
    return not name.startswith("trace.") and unit != "s"


def traced(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in workloads.WORKLOADS:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counts = {k: m["value"] for k, m in first["metrics"].items() if is_count(k, m["unit"])}
        again = {k: m["value"] for k, m in second["metrics"].items() if is_count(k, m["unit"])}
        differ = sorted(k for k in counts if counts[k] != again.get(k))
        correct = first["correct"] and second["correct"]
        ok &= correct and not differ
        print(f"{workload}: {len(counts)} count metrics, "
              f"{'identical' if not differ else 'differ: ' + ', '.join(differ)}; "
              f"outputs {'correct' if correct else 'WRONG'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
