"""The repository benchmark: one workload, one seed, one result line.

Usage::

    python3 perfbench/run.py --workload {serve_hot,fleet_hot} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload runs as a fixed number of
*passes* (``pass_count``: it follows from ``--seconds``, never from how
fast the program is), each in a fresh process (``perfbench/passes.py``)
that builds the inputs from the seed, sets up cold and runs one timed
phase.  Every pass checks the program's results; the first one also
re-evaluates a seed-chosen sample with the scalar oracle.

``--trace 0`` prints the end-to-end metrics.  Each pass yields its own
requests per second, latency p50 and p95 (from that pass's own requests)
and peak RSS, and a run reports the median of each over its passes.
``setup_s`` is the median over ``SETUP_SAMPLES`` cold set-ups: those of
the passes plus set-up-only passes.  The run also reports the share of
requests served correctly and the paper-fidelity errors.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
from the traced ones (``perfbench/tracer.py``), with the tracing overhead
and the share of wall time no layer span covers.
The last line of standard output is the result object; the line before it
is a record of the run (machine, versions, seed, traffic profile, passes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

WORKLOADS = ("serve_hot", "fleet_hot")
#: Timed seconds of one untraced pass on a 2-vCPU VM.  A run makes
#: ``round(seconds / NOMINAL_PASS_S)`` passes (at least ``MIN_PASSES``).
NOMINAL_PASS_S = {"serve_hot": 3.5, "fleet_hot": 3.1}
MIN_PASSES = 3
#: Cold set-ups per untraced run, the passes' own included.
SETUP_SAMPLES = 15
#: A run still short of its passes after this many seconds fails rather
#: than run past 180 s.
START_BUDGET_S = 120.0
PASS_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "served_fraction": "ratio",
    "peak_rss_mb": "MiB",
    "fig6_err_pct": "%",
    "fig7_err_pct": "%",
    "fig8_err_pct": "%",
    "fig9_err_pct": "%",
    "fig10_err_pct": "%",
}

#: Per-layer metric -> (span or event name, field of ``tracer.layer_times``).
SPAN_METRICS = {
    "requests.parse.calls": ("requests.parse", "calls"),
    "requests.parse.self_s": ("requests.parse", "self_s"),
    "requests.hash.self_s": ("requests.hash", "self_s"),
    "requests.encode.self_s": ("requests.encode", "self_s"),
    "store.get.calls": ("store.get", "calls"),
    "store.get.self_s": ("store.get", "self_s"),
    "store.put.self_s": ("store.put", "self_s"),
    "scheduler.submit.self_s": ("scheduler.submit", "self_s"),
    "scheduler.tick.calls": ("scheduler.tick", "calls"),
    "scheduler.tick.self_s": ("scheduler.tick", "self_s"),
    "http.handle.self_s": ("http.handle", "self_s"),
    "fleet.submit.self_s": ("fleet.submit", "self_s"),
    "fleet.frames": ("fleet.frame", "calls"),
    "fleet.frame_bytes": ("fleet.frame", "amount"),
    "derive.many.self_s": ("derive.many", "self_s"),
    "config_batch.derive.self_s": ("config_batch.derive", "self_s"),
    "config_batch.area.self_s": ("config_batch.area", "self_s"),
    "slicing.slice.self_s": ("slicing.slice", "self_s"),
    "encoding.encode.self_s": ("encoding.encode", "self_s"),
    "profile.layer.calls": ("profile.layer", "calls"),
    "profile.layer.self_s": ("profile.layer", "self_s"),
    "grid.run.self_s": ("grid.run", "self_s"),
    "grid.cells": ("grid.cells", "amount"),
    "macro.evaluate_layer.self_s": ("macro.evaluate_layer", "self_s"),
    "mapping.search.calls": ("mapping.search", "calls"),
    "mapping.search.self_s": ("mapping.search", "self_s"),
}

#: Per-layer metrics read from the program's public stats by the passes.
COUNTER_METRICS = (
    "store.hit_ratio", "store.disk_hits", "scheduler.coalesced_ratio",
    "scheduler.batches", "scheduler.retries", "scheduler.errors",
    "terms.hit_ratio", "terms.derivations", "mapping.mappings_evaluated",
    "fleet.reply_wait_s", "fleet.shard_skew", "fleet.redispatched",
)

PER_LAYER_UNITS = {
    **{name: ("s" if name.endswith("_s") else "count") for name in SPAN_METRICS},
    "fleet.frame_bytes": "bytes",
    "store.hit_ratio": "ratio", "store.disk_hits": "count",
    "scheduler.coalesced_ratio": "ratio", "scheduler.batches": "count",
    "scheduler.retries": "count", "scheduler.errors": "count",
    "terms.hit_ratio": "ratio", "terms.derivations": "count",
    "mapping.mappings_evaluated": "count", "fleet.reply_wait_s": "s",
    "fleet.shard_skew": "ratio", "fleet.redispatched": "count",
    "http.transport_ms": "ms",
    "trace.overhead_rps": "1/s",
    "trace.unattributed_share": "ratio",
}

#: Span and event names each workload must record at least once when
#: traced; together they cover every wrapper the tracer installs.
EXERCISED = {
    "serve_hot": (
        "requests.parse", "requests.hash", "requests.encode", "store.get",
        "scheduler.submit", "http.handle",
    ),
    "fleet_hot": (
        "fleet.submit", "fleet.frame", "fleet.decode", "requests.parse",
        "requests.hash", "requests.encode", "store.get", "store.put",
        "scheduler.submit", "scheduler.tick", "derive.many", "config_batch.derive",
        "config_batch.area", "slicing.slice", "encoding.encode", "profile.layer",
        "grid.run", "grid.cells", "macro.evaluate_layer", "mapping.search",
    ),
}


def percentile(values: List[float], share: float) -> float:
    """Linear-interpolated percentile of ``values`` (``share`` in [0, 1])."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_env() -> Dict[str, str]:
    """The passes' environment: this checkout's sources, no ``REPRO_*`` knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pass(workload: str, seed: int, directory: Path, trace: bool = False,
             check: bool = False, setup_only: bool = False) -> Dict:
    directory.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "passes.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--check", str(int(check)),
        "--setup-only", str(int(setup_only)), "--dir", str(directory),
    ]
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(), start_new_session=True)
    try:
        process.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} pass did not finish in {PASS_TIMEOUT_S:.0f}s")
    finally:
        # The pass stops its own server or shards; this only reaps strays.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with code {process.returncode}")
    with open(directory / "pass.json") as handle:
        record = json.load(handle)
    record["traced"] = trace
    record["span_files"] = sorted(str(path) for path in directory.glob("spans-*.json"))
    return record


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def run_passes(args, scratch: Path, started: float) -> List[Dict]:
    """The run's passes: untraced ones, or untraced/traced pairs."""
    count = pass_count(args.workload, args.seconds)
    modes = [False, True] if args.trace else [False]
    rounds = max(1, count // 2) if args.trace else count
    records: List[Dict] = []
    for _ in range(rounds):
        if records and time.perf_counter() - started > START_BUDGET_S:
            raise RuntimeError(f"{args.workload}: {len(records)} passes took over "
                               f"{START_BUDGET_S:.0f}s")
        for traced in modes:
            records.append(run_pass(args.workload, args.seed,
                                    scratch / f"pass-{len(records)}",
                                    trace=traced, check=not records))
    return records


def extra_setups(args, scratch: Path, taken: int) -> List[float]:
    """Set-up seconds of set-up-only passes, to ``SETUP_SAMPLES`` in all."""
    return [
        run_pass(args.workload, args.seed, scratch / f"setup-{index}",
                 setup_only=True)["setup_s"]
        for index in range(SETUP_SAMPLES - taken)
    ]


def pass_figures(record: Dict) -> Dict[str, float]:
    """One pass's own throughput and latency percentiles."""
    latencies = record["latencies_s"]
    return {
        "requests_per_s": record["requests"] / record["timed_s"],
        "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
        "latency_p95_ms": 1e3 * percentile(latencies, 0.95),
    }


def median_figures(records: List[Dict]) -> Dict[str, float]:
    """The median over passes of each per-pass figure."""
    rows = [pass_figures(record) for record in records]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def correctness(records: List[Dict]) -> List[str]:
    """Problems found across passes (empty when every check held)."""
    problems = []
    if len({record["digest"] for record in records}) != 1:
        problems.append("passes returned different results for the same inputs")
    for index, record in enumerate(records):
        for key, value in record["check"].items():
            if key != "oracle_sampled" and value:
                problems.append(f"pass {index}: {key} = {value}")
    return problems


def end_to_end(records: List[Dict], setups: List[float]) -> Dict[str, float]:
    attempted = sum(record["requests"] for record in records)
    failed = sum(record["failed"] for record in records)
    # A pass has 200 requests beyond its own 95th percentile on serve_hot,
    # and 400 from more than ten windows on fleet_hot.
    return {
        "setup_s": statistics.median(setups),
        **median_figures(records),
        "served_fraction": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record in records),
    }


def per_layer(workload: str, records: List[Dict], problems: List[str]) -> Dict[str, float]:
    from tracer import layer_times, load_dumps

    traced = [record for record in records if record["traced"]]
    untraced = [record for record in records if not record["traced"]]
    rows = []
    for record in traced:
        window = tuple(record["window"])
        totals, covered = layer_times(load_dumps(record["span_files"]), window)
        row = {
            metric: totals.get(name, {}).get(field, 0)
            for metric, (name, field) in SPAN_METRICS.items()
        }
        row.update({name: record["counters"].get(name, 0) for name in COUNTER_METRICS})
        handle = totals.get("http.handle")
        row["http.transport_ms"] = (
            1e3 * (sum(record["latencies_s"]) - handle["total_s"]) / record["requests"]
            if workload == "serve_hot" and handle else 0.0
        )
        row["trace.unattributed_share"] = 1.0 - covered / record["timed_s"]
        rows.append(row)
        missing = [
            name for name in EXERCISED[workload]
            if not (totals.get(name, {}).get("calls") or totals.get(name, {}).get("amount"))
        ]
        if missing:
            problems.append(f"traced {workload} recorded no call of: {', '.join(missing)}")
    metrics = {metric: statistics.median(row[metric] for row in rows) for metric in rows[0]}
    metrics["trace.overhead_rps"] = (
        median_figures(traced)["requests_per_s"] - median_figures(untraced)["requests_per_s"]
    )
    return metrics


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC / 'repro'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    # A terminated run still stops its pass and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.perf_counter()
    scratch = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    try:
        records = run_passes(args, scratch, started)
        problems = correctness(records)
        setups = [record["setup_s"] for record in records]
        if args.trace:
            metrics = per_layer(args.workload, records, problems)
            units = PER_LAYER_UNITS
        else:
            setups += extra_setups(args, scratch, len(setups))
            sys.path.insert(0, str(SRC))
            from fidelity import fidelity

            metrics = {**end_to_end(records, setups), **fidelity()}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(record["requests"] for record in records)
    failed = sum(record["failed"] for record in records)
    import numpy

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "traffic": records[0]["profile"], "passes": len(records),
        "latency_samples_per_pass": len(records[0]["latencies_s"]),
        "setup_samples_s": setups,
        "per_pass": [
            {"traced": r["traced"], "setup_s": r["setup_s"], "timed_s": r["timed_s"],
             **pass_figures(r), "failed": r["failed"], "peak_rss_mb": r["peak_rss_mb"],
             "check": r["check"]}
            for r in records
        ],
        "problems": problems,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
