"""Benchmark of qtorus: the verify campaign and the dimension solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads are ``campaign``, ``transpose_pair`` and ``random_forms``; see
``workloads.py`` for their inputs and ``BENCHMARK.json`` for their
metrics.  With ``--trace 0`` a run times every call of as many rounds as
fit in ``--seconds`` (at least MIN_ROUNDS), calls the first round again to
see that its answers repeat, checks every answer, and reports the
end-to-end metrics.  With ``--trace 1`` it calls a fixed number of rounds
untraced, then the same items again through ``tracing.Tracer``, and reports
the per-layer metrics per round.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

SETUP_SAMPLES = 5
MIN_ROUNDS = 4
TAIL_BEYOND = 10
# Rounds of a traced run: fixed, so that its call counts repeat exactly.
TRACE_ROUNDS = {"campaign": 30, "transpose_pair": 2, "random_forms": 8}


def load_qtorus(root: Path) -> None:
    """Import qtorus from the checkout's ``src``, and from nowhere else."""
    package = root / "src" / "qtorus"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no qtorus sources at {package}; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import qtorus

    if Path(qtorus.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported qtorus from {qtorus.__file__}, not from {package}")


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing qtorus and building the first round."""
    start = time.perf_counter()
    load_qtorus(Path.cwd())
    import workloads

    workloads.Rounds(workload, seed).items(0)
    print(time.perf_counter() - start)


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def timed_calls(workload: str, items) -> tuple[list, list[float]]:
    """Answers (None where the call raised) and seconds of each call."""
    import workloads

    answers, latencies = [], []
    for item in items:
        start = time.perf_counter()
        try:
            answer = workloads.call(workload, item)
        except Exception as exc:  # counted as a failed call, not fatal
            print(f"{item.label}: raised {exc!r}", file=sys.stderr)
            answer = None
        latencies.append(time.perf_counter() - start)
        answers.append(answer)
    return answers, latencies


def decided_frac(workload: str, answers) -> float:
    """Share of answers the certificates decide: exact dimension intervals,
    or holds and violated verdicts of the campaign."""
    answers = [a for a in answers if a is not None]
    if workload == "campaign":
        tallies = [t for report in answers for t in report["tallies"].values()]
        decided = sum(t["holds"] + t["violated"] for t in tallies)
        return decided / sum(sum(t.values()) for t in tallies)
    return sum(a["exact"] for a in answers) / len(answers)


def latency_stats(latencies) -> dict:
    """Throughput, median and tail latency of the timed calls, in seconds.

    The tail is the highest whole percentile with TAIL_BEYOND calls or more
    beyond it, by nearest rank.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    percentile = 100 * (n - TAIL_BEYOND) // n
    rank = (percentile * n + 99) // 100
    return {
        "throughput": n / sum(ordered),
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "percentile": percentile,
        "calls": n,
    }


def end_to_end(workload: str, answers, stats: dict, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (stats["throughput"], "1/s"),
        "latency_p50_ms": (stats["p50"] * 1e3, "ms"),
        "latency_tail_ms": (stats["tail"] * 1e3, "ms"),
        "decided_frac": (decided_frac(workload, answers), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: tracing.Tracer, rounds: int, plain, traced) -> dict:
    metrics = {}
    for module, path in tracing.TARGETS:
        name = f"{module}.{path}"
        metrics[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / rounds, "s")
    metrics["lattice.hnf.cells"] = (tracer.hnf_cells / rounds, "count")
    bf = "solver.brute_force_dimension"
    attempted, refused = tracer.calls[bf], tracer.raised[bf]
    metrics[f"{bf}.refused"] = (refused / rounds, "count")
    metrics[f"{bf}.useful_frac"] = ((attempted - refused) / attempted if attempted else 0.0, "fraction")
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1, "fraction")
    return metrics


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "transpose_pair", "random_forms"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    load_qtorus(Path.cwd())
    import checks
    import workloads

    rounds = workloads.Rounds(args.workload, args.seed)
    if args.trace:
        count = TRACE_ROUNDS[args.workload]
        items = [item for r in range(count) for item in rounds.items(r)]
        answers, plain = timed_calls(args.workload, items)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            again, traced = timed_calls(args.workload, items)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, count, plain, traced)
        runs = [[a, b] for a, b in zip(answers, again)]
    else:
        setup_s = measure_setup(args.workload, args.seed)
        items, answers, latencies = [], [], []
        start = time.perf_counter()
        count = 0
        while count < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            batch = rounds.items(count)
            got, took = timed_calls(args.workload, batch)
            items += batch
            answers += got
            latencies += took
            count += 1
        again, _ = timed_calls(args.workload, rounds.items(0))
        stats = latency_stats(latencies)
        metrics = end_to_end(args.workload, answers, stats, setup_s)
        print(f"latency tail is p{stats['percentile']} of {stats['calls']} calls")
        runs = [[a] for a in answers]
        for run, answer in zip(runs, again):
            run.append(answer)

    failed, messages = checks.count_failures(args.workload, items, runs)
    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = sum(len(r) for r in runs)
    if args.workload != "campaign" and None not in answers:
        gap = statistics.fmean(a["upper"] - a["lower"] for a in answers)
        print(f"gap_mean {gap} over {len(answers)} answers")
    print(
        f"{args.workload} seed {args.seed}: {count} rounds, {len(items)} timed calls, "
        f"fail_frac {failed / attempted} ({failed} of {attempted} calls), "
        f"{time.perf_counter() - started:.1f} s"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
