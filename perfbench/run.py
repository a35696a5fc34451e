"""cliquecore benchmark: seeded CLI workloads, timed end to end, traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve_dense --seed 1 --seconds 30 --trace 0

Each run is one process and one closed-loop client: after one unmeasured
warm-up call it calls ``cliquecore.cli.main(argv)`` in-process, stdout and
stderr captured, until ``--seconds`` have passed, then checks every output
with the benchmark's own code.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs a fixed list of calls once plain and once with
every public layer function wrapped, and prints the per-layer metrics.
``--workload all`` runs each workload in its own process.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Distinct inputs generated per run; a timed run cycles through them only
#: if it gets through all of them.
POOL = {"solve_dense": 400, "verify_exhaustive": 60, "corpus_batch": 600}
#: Highest percentile with at least ten calls beyond it in a 30 s run on a
#: slow moment of a shared 2-CPU machine (about 140, 46 and 138 calls).
TAIL_PERCENTILE = {"solve_dense": 90, "verify_exhaustive": 75, "corpus_batch": 90}
#: Calls in the traced run (each made once plain and once traced).
TRACED_CALLS = {"solve_dense": 40, "verify_exhaustive": 18, "corpus_batch": 60}
#: Set-up samples taken before, and again after, the timed loop.
SETUP_RUNS = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_s.p50": "s",
    "call_s.tail": "s",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SPAN_NAMES = [tracing.span_name(m, a) for m, a in tracing.TRACED]
PER_LAYER_UNITS = {
    "lp.solve_general.calls": "count",
    "lp.solve_general.self_s": "s",
    "lp.solve_primal.calls": "count",
    "lp.solve_dual.calls": "count",
    "lp.tableau_cells": "count",
    "lp.useful_solve_ratio": "ratio",
    "oracle.subset_cost_table.calls": "count",
    "oracle.subset_cost_table.self_s": "s",
    "oracle.subset_cost_table.entries": "count",
    "core.ExhaustiveChecker.init.calls": "count",
    "core.ExhaustiveChecker.init.self_s": "s",
    "core.ExhaustiveChecker.check.calls": "count",
    "core.ExhaustiveChecker.check.self_s": "s",
    "core.scenarios_checked": "count",
    "core.scan_ratio": "ratio",
    "core.checks_per_table": "ratio",
    "oracle.max_weight_stable_set.calls": "count",
    "oracle.max_weight_stable_set.self_s": "s",
    "oracle.cost.calls": "count",
    "core.game_worth.calls": "count",
    "oracle.min_integral_clique_cover_value.calls": "count",
    "oracle.min_integral_clique_cover_value.self_s": "s",
    "oracle.four_program_chain.calls": "count",
    "oracle.four_program_chain.self_s": "s",
    "core.compute_core_imputation.calls": "count",
    "core.compute_core_imputation.self_s": "s",
    "core.verify_core_certificate.calls": "count",
    "core.verify_core_certificate.self_s": "s",
    "perfection.is_perfect.calls": "count",
    "perfection.is_perfect.self_s": "s",
    "perfection.find_odd_hole.calls": "count",
    "perfection.find_odd_hole.self_s": "s",
    "graph.complement.calls": "count",
    "cliques.maximal_cliques.calls": "count",
    "cliques.maximal_cliques.self_s": "s",
    "cliques.found": "count",
    "graph.parse_graph.calls": "count",
    "graph.parse_graph.self_s": "s",
    "graph.parse_graph.bytes": "bytes",
    "graph.induced_subgraph.calls": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "generators.random_bipartite.self_s": "s",
    "generators.random_chordal.self_s": "s",
    "corpus.build_corpus.self_s": "s",
    "corpus.run_instance_suite.calls": "count",
    "corpus.run_instance_suite.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
    }


def invoke(main, call: workloads.Call) -> tuple[float, str | None]:
    """Run one CLI call; return its wall time and an error, or None if its
    exit code and output are right."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(call.argv)
    except Exception as exc:  # a crash is a failed call, not a failed run
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code != call.expect_exit:
        return elapsed, f"exit {code}, expected {call.expect_exit}: {err.getvalue().strip()[:200]}"
    try:
        return elapsed, call.check(out.getvalue())
    except (ValueError, KeyError, TypeError) as exc:
        return elapsed, f"malformed output: {exc!r}"


def measure_setup(runs: int) -> list[float]:
    """Wall times of fresh ``python -m cliquecore.cli generate --generate
    paley3x3`` processes: interpreter start, import and the cheapest verb."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "cliquecore.cli", "generate", "--generate", "paley3x3"]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("p 9 18\n"):
            raise RuntimeError(f"set-up command failed: {proc.stderr.strip()[:200]}")
    return times


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_run(name: str, calls: list[workloads.Call], seconds: int) -> tuple[dict, int, int]:
    import cliquecore.cli as cli

    measure_setup(1)  # may compile bytecode
    setup = measure_setup(SETUP_RUNS)
    invoke(cli.main, calls[-1])  # warm-up: never reached by the timed loop
    durations, errors = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        elapsed, error = invoke(cli.main, calls[i % len(calls)])
        durations.append(elapsed)
        if error:
            errors.append(f"{calls[i % len(calls)].kind} #{i}: {error}")
        i += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    # set-up sampled on both sides of the loop, so one slow moment of the
    # machine does not decide the median
    setup += measure_setup(SETUP_RUNS)
    for e in errors[:10]:
        print(f"FAILED {e}")
    tail = TAIL_PERCENTILE[name]
    samples = len(durations)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "call_s.p50": (statistics.median(durations), samples),
        "call_s.tail": (percentile(durations, tail) if samples > 1 else durations[0], samples),
        "calls_per_s": (samples / wall, samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(f"call_s.tail is p{tail}; failed_ratio {len(errors) / samples:.4f} "
          f"({len(errors)} of {samples} calls)")
    for key, (value, n) in metrics.items():
        print(f"{key:14s} {value:12.6f} {END_TO_END_UNITS[key]:4s} n={n}")
    return {k: v for k, (v, _) in metrics.items()}, samples, len(errors)


def traced_run(name: str, calls: list[workloads.Call], seed: int) -> tuple[dict, int, int]:
    import cliquecore.cli as cli

    invoke(cli.main, calls[-1])  # warm-up: not among the traced calls
    calls = calls[: TRACED_CALLS[name]]
    # Each call runs plain, then traced, so both see the same machine state.
    tracer = tracing.Tracer()
    plain, walls, errors = [], [], []
    for i, call in enumerate(calls):
        elapsed, error = invoke(cli.main, call)
        plain.append(elapsed)
        errors.append(error)
        with tracer:
            tracer.call_id = i
            # looked up again: the tracer has replaced cli.main
            elapsed, error = invoke(cli.main, call)
        walls.append(elapsed)
        errors.append(error)
    leftover = tracing.leftover_wrappers()
    if leftover:
        errors.append(f"wrappers left after the traced run: {leftover}")
    failed = [e for e in errors if e]
    for e in failed[:10]:
        print(f"FAILED {e}")

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    calls_by, self_by = {}, {}
    for (span, start_t, end_t, parent, call_id), s in zip(spans, selfs):
        calls_by[span] = calls_by.get(span, 0) + 1
        self_by[span] = self_by.get(span, 0.0) + s
    # named child-span time: spans directly under each call's cli.main
    covered = sum(
        end_t - start_t
        for _, start_t, end_t, parent, _ in spans
        if parent >= 0 and spans[parent][0] == "cli.main"
    )
    c = tracer.counts
    general = calls_by.get("lp.solve_general", 0)
    inits = calls_by.get("core.ExhaustiveChecker.init", 0)
    values = dict(c)
    for span in SPAN_NAMES:
        values[f"{span}.calls"] = calls_by.get(span, 0)
        values[f"{span}.self_s"] = self_by.get(span, 0.0)
    values["lp.useful_solve_ratio"] = (
        (calls_by.get("lp.solve_primal", 0) + calls_by.get("lp.solve_dual", 0)
         + 2 * calls_by.get("oracle.four_program_chain", 0)) / general if general else 0.0
    )
    values["core.scan_ratio"] = (
        c["core.scenarios_checked"] / c["core.scenario_space"] if c["core.scenario_space"] else 0.0
    )
    values["core.checks_per_table"] = (
        calls_by.get("core.ExhaustiveChecker.check", 0) / inits if inits else 0.0
    )
    values["trace.coverage"] = covered / sum(walls)
    values["trace.overhead_ratio"] = sum(walls) / sum(plain)
    metrics = {k: values[k] for k in PER_LAYER_UNITS}

    print(f"traced {len(calls)} calls: plain {sum(plain):.3f} s, traced {sum(walls):.3f} s")
    for key, value in metrics.items():
        print(f"{key:46s} {value:14.6f} {PER_LAYER_UNITS[key]}")
    print_layer_split(spans, selfs, walls)

    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{name}-{seed}.json"
    out.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "call"],
        "call_wall_s": walls,
        "spans": spans,
    }))
    print(f"spans written to {out.relative_to(ROOT)}")
    return metrics, 2 * len(calls), len(failed)


def print_layer_split(spans, selfs, walls) -> None:
    """Share of traced call time by layer (module), over all calls and
    within the median-length call."""
    def split(keep) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, s in zip(spans, selfs):
            if keep(span[4]):
                layer = span[0].split(".")[0]
                out[layer] = out.get(layer, 0.0) + s
        return out

    median_call = sorted(range(len(walls)), key=walls.__getitem__)[len(walls) // 2]
    for label, shares, total in (
        ("all calls", split(lambda _: True), sum(walls)),
        (f"median call (#{median_call})", split(lambda c: c == median_call), walls[median_call]),
    ):
        parts = ", ".join(f"{k} {v / total:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
        print(f"layer self-time share, {label}: {parts}")
    by_name: dict[str, float] = {}
    for span, s in zip(spans, selfs):
        by_name[span[0]] = by_name.get(span[0], 0.0) + s
    top = sorted(by_name.items(), key=lambda kv: -kv[1])[:5]
    print("top self times: " + ", ".join(f"{k} {v / sum(walls):.1%}" for k, v in top))


def run_one(args) -> int:
    if not (SRC / "cliquecore" / "__init__.py").is_file():
        print(f"error: no cliquecore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cliquecore

    if Path(cliquecore.__file__).resolve().parent != SRC / "cliquecore":
        print(f"error: imported cliquecore from {cliquecore.__file__}", file=sys.stderr)
        return 2
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, python {env['python']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"load average before: {os.getloadavg()}")
    work = WORK / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}/{args.seed}")
    calls = workloads.WORKLOADS[args.workload](rng, POOL[args.workload], work)
    if args.trace:
        metrics, attempted, failed = traced_run(args.workload, calls, args.seed)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, failed = timed_run(args.workload, calls, args.seconds)
        units = END_TO_END_UNITS
    print(f"load average after: {os.getloadavg()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
