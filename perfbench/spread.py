"""Run-to-run spread of the end-to-end metrics, the way the bounds are judged.

Usage: ``python3 perfbench/spread.py --runs 10 [--workloads W ...]
[--first-seed N] [--out FILE]``.  Runs ``perfbench/run.py`` once per seed on
each workload, taking the workloads in turn, and reports, per metric, the median of the runs and the
distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median.  The
spread of every metric, ``setup_s`` included, must stay within the
metric's ``bound`` in ``BENCHMARK.json``; the exit code is 1 when one
does not, or when a run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / median if median else 0.0


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[entry["name"] for entry in benchmark["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}

    # Round-robin over the workloads, so each workload's runs spread over
    # the whole measurement instead of sharing one stretch of machine load.
    values = {workload: {} for workload in args.workloads}
    records = {workload: [] for workload in args.workloads}
    correct = dict.fromkeys(args.workloads, True)
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workloads:
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                print(f"{workload} seed {seed} exited with {completed.returncode}",
                      file=sys.stderr)
                return 1
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            records[workload].append(json.loads(lines[-2])["record"])
            correct[workload] = correct[workload] and result["correct"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    report = {}
    steady = all(correct.values())
    for workload in args.workloads:
        rows = {}
        for name, series in values[workload].items():
            median, share = spread(series)
            rows[name] = {"median": median, "iqr_share": share, "bound": bounds[name],
                          "values": series}
            verdict = "ok" if share <= bounds[name] else "TOO NOISY"
            steady = steady and share <= bounds[name]
            print(f"{workload:10s} {name:16s} median {median:12.5g} "
                  f"spread {share:7.4f} bound {bounds[name]} {verdict}", flush=True)
        report[workload] = {"correct": correct[workload], "metrics": rows,
                            "records": records[workload]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
