"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py [--workload crawl|traffic|analysis|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each measurement runs in a fresh ``worker.py`` process, so set-up time
and peak RSS are cold.  ``--trace 0`` reports the end-to-end metrics:
one full untraced run plus two more cold set-ups, whose median is
``setup_s``.  ``--trace 1`` reports the per-layer metrics: an untraced
run, then a traced run of the same inputs whose outputs must be
identical.  Every output is checked; any failed check exits 1.  The
last line of standard output is one JSON object with the results.
``setup_s`` and ``items_per_s`` are in reference seconds, wall seconds
corrected for the host's speed (``speed.py``); the report also shows
them in wall seconds.
See README.md for the workloads, the metrics and the seed policy.
"""

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("crawl", "traffic", "analysis")
#: Cold set-ups per ``--trace 0`` run, the measured run's included.
SETUPS = 3
#: Whole-invocation budget; the workers must finish inside it.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _worker(workload: str, mode: str, args, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), workload, "--mode", mode,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    # Its own process group, so a timeout also stops the processes the
    # worker started (the analysis crawl, ParallelCrawler's pool).
    worker = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        stdout, _ = worker.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise BenchError(f"{workload} {mode}: out of time") from None
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode}: worker exited "
                         f"{worker.returncode}")
    return json.loads(lines[-1])


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(workload: str, args, deadline: float) -> dict:
    """One workload's metrics, problems and human-readable report."""
    base = _worker(workload, "run", args, deadline)
    problems = list(base["problems"])
    if base["failed"]:
        problems.append(f"{base['failed']} of {base['attempted']} "
                        "operations failed")
    report = [f"perfbench {workload}: seed {args.seed}, "
              f"{base['reps']} repetition(s), {base['timed_s']:.2f} s timed"]
    if args.trace:
        traced = _worker(workload, "trace", args, deadline)
        problems += traced["problems"]
        if traced["digest"] != base["digest"]:
            problems.append("traced outputs differ from untraced outputs")
        overhead = ((traced["timed_s"] / traced["reps"])
                    / (base["timed_s"] / base["reps"]))
        metrics = {name: tuple(pair)
                   for name, pair in traced["layers"].items()}
        metrics["trace.overhead"] = (overhead, "ratio")
        for name, (value, unit) in sorted(metrics.items()):
            report.append(f"  {name:34s} {_format(value):>14s} {unit}")
    else:
        runs = [base] + [_worker(workload, "setup", args, deadline)
                         for _ in range(SETUPS - 1)]
        setups = [run["setup_s"] for run in runs]
        workload_metrics = {name: tuple(pair)
                            for name, pair in base["metrics"].items()}
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (base["peak_rss_mb"], "MB"),
            "items_per_s": workload_metrics["items_per_s"],
        }
        report.append(f"  {'setup_s':14s} {metrics['setup_s'][0]:12.4f} s"
                      f"  (median of {', '.join(f'{s:.3f}' for s in setups)};"
                      " wall " + ", ".join(f"{run['setup_wall_s']:.3f}"
                                            for run in runs) + ")")
        report.append(f"  {'peak_rss_mb':14s} "
                      f"{metrics['peak_rss_mb'][0]:12.1f} MB")
        report.append(f"  {'items_per_s':14s} "
                      f"{metrics['items_per_s'][0]:12.4f} items/s")
        for name, (value, unit) in workload_metrics.items():
            if name == "items_per_s":
                continue
            if name.startswith("site_ms"):
                unit += f"  (n={workload_metrics['site_samples'][0]})"
            if name != "site_samples":
                report.append(f"  {name:14s} {value:12.4f} {unit}")
        report.append(f"  {'error_share':14s} "
                      f"{base['failed'] / base['attempted']:12.4f}"
                      f"  ({base['failed']} of {base['attempted']})")
        for name, value in sorted(base["outputs"].items()):
            report.append(f"  model {name} = {value}")
    report.append("  checks: " + ("; ".join(problems) or "ok"))
    return {
        "problems": problems,
        "attempted": base["attempted"],
        "failed": base["failed"],
        "metrics": metrics,
        "report": report,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2022,
                        help="seed of the per-run randomness (default 2022)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum timed seconds per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"perfbench: no package source at {source}", file=sys.stderr)
        return 2
    # The build step: byte-compile once, so no worker's set-up time
    # includes compiling the package.
    if not compileall.compile_dir(str(source), quiet=1):
        print("perfbench: byte-compiling the package failed",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = started + BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args, deadline)
            print("\n".join(results[name]["report"]), flush=True)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    problems = [p for result in results.values() for p in result["problems"]]
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else name + "."
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }, sort_keys=True))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
