"""One pass of one workload, run in a fresh Python process.

Usage: ``python3 perfbench/passes.py --workload NAME --seed N --trace 0|1
--check 0|1 --setup-only 0|1 --dir PASS_DIR``.  The pass builds its inputs
from the seed, sets up, runs the timed phase once, checks what the
program returned and writes ``PASS_DIR/pass.json``.  A set-up-only pass
stops where the timed phase would start and records only ``setup_s``.
``perfbench/run.py`` starts the passes and aggregates them; each pass
starts cold, so every pass pays its own imports and warm-up, and
``setup_s`` is measured from this file's first line, before ``repro`` is
imported, to the first timed request.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

#: Requests per fleet window.
FLEET_WINDOW = 32
#: Client threads (HTTP) and shards (fleet): never more than the cores.
CORES = os.cpu_count() or 1
CLIENTS = max(1, min(2, CORES))
#: Unique requests per family re-evaluated with the scalar oracle.
ORACLE_PER_FAMILY = 4
#: The repo's batched-vs-scalar relative gate.
REL_TOL = 1e-9
WAIT_S = 120.0


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def close_enough(expected, actual) -> bool:
    """Equal, with floats allowed ``REL_TOL`` relative difference."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict) and expected.keys() == actual.keys()
            and all(close_enough(expected[key], actual[key]) for key in expected)
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, (list, tuple)) and len(expected) == len(actual)
            and all(close_enough(e, a) for e, a in zip(expected, actual))
        )
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, bool) or isinstance(actual, bool):
            return expected == actual
        return abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual))
    return expected == actual


def oracle_sample(pool, seed: int):
    """Seed-chosen pool indices, ``ORACLE_PER_FAMILY`` from each family."""
    by_family = defaultdict(list)
    for index, request in enumerate(pool):
        by_family[inputs.family_of(request)].append(index)
    rng = random.Random(seed * 7919 + 17)
    sample = []
    for family in sorted(by_family, key=repr):
        members = by_family[family]
        sample += rng.sample(members, min(ORACLE_PER_FAMILY, len(members)))
    return sorted(sample)


def oracle_mismatches(pool, results, seed: int):
    """Pool indices whose served result differs from the scalar oracle."""
    from repro.service import EvaluationRequest
    from repro.service.scheduler import evaluate_scalar

    sample = oracle_sample(pool, seed)
    bad = [
        index for index in sample
        if not close_enough(evaluate_scalar(EvaluationRequest.from_dict(pool[index])),
                            results[index])
    ]
    return sample, bad


def same_payload(body: bytes, expected) -> bool:
    try:
        return json.loads(body) == expected
    except ValueError:
        return False


def digest(texts) -> str:
    """One hash over the canonical results, in pool order."""
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def delta(after, before, key):
    return after.get(key, 0) - before.get(key, 0)


def service_counters(sched_before, sched_after, store_before, store_after):
    """Per-layer counters from the public scheduler and store stats."""
    d = {key: delta(sched_after, sched_before, key) for key in sched_after
         if isinstance(sched_after[key], (int, float))}
    s = {key: delta(store_after, store_before, key) for key in store_after
         if isinstance(store_after[key], (int, float))}
    return {
        "store.hit_ratio": ratio(s["hits"], s["hits"] + s["misses"]),
        "store.disk_hits": s["disk_hits"],
        "scheduler.coalesced_ratio": ratio(d["coalesced"], d["submitted"]),
        "scheduler.batches": d["dispatched_batches"],
        "scheduler.retries": d["retries"],
        "scheduler.errors": d["errors"],
        "terms.hit_ratio": ratio(d["term_hits"], d["term_hits"] + d["term_misses"]),
        "terms.derivations": d["term_derivations"],
    }


def mappings_evaluated(results) -> int:
    return sum(
        result.get("mappings_evaluated", 0) for result in results
        if isinstance(result, dict) and result.get("objective") == "mappings"
    )


# ----------------------------------------------------------------------
# serve_hot: single POST /evaluate calls against the HTTP server
# ----------------------------------------------------------------------
def http_call(port: int, method: str, path: str, body: bytes = b""):
    """One HTTP/1.0 exchange; returns ``(status, body bytes)``."""
    head = (
        f"{method} {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return http_exchange(port, head + body)


def http_exchange(port: int, message: bytes):
    with socket.create_connection(("127.0.0.1", port), timeout=WAIT_S) as sock:
        sock.sendall(message)
        chunks = []
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks)
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def run_serve(args, tracer):
    pool, trace = inputs.hot_traffic(args.seed, inputs.SERVE_SHAPE)
    server = subprocess.Popen(
        [sys.executable, str(HERE / "server_entry.py"), "--trace", str(int(args.trace)),
         "--dir", args.dir],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        port = json.loads(server.stdout.readline())["port"]
        status, body = http_call(
            port, "POST", "/evaluate/batch",
            json.dumps({"requests": pool}, sort_keys=True).encode("utf-8"),
        )
        if status != 200:
            raise RuntimeError(f"warm-up batch answered {status}")
        warm = json.loads(body)["results"]
        messages = []
        for request in pool:
            payload = json.dumps(request, sort_keys=True).encode("utf-8")
            messages.append(
                f"POST /evaluate HTTP/1.0\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(payload)}"
                f"\r\n\r\n".encode("ascii") + payload
            )
        health_before = json.loads(http_call(port, "GET", "/healthz")[1])

        count = len(trace)
        latencies = [0.0] * count
        statuses = [None] * count
        bodies = [b""] * count
        cursor = itertools.count()

        def client():
            while True:
                position = next(cursor)
                if position >= count:
                    return
                index = trace[position]
                sent = time.perf_counter()
                try:
                    status, body = http_exchange(port, messages[index])
                except OSError as error:
                    print(f"serve_hot request {position} failed: {error!r}", file=sys.stderr)
                    status, body = None, b""
                latencies[position] = time.perf_counter() - sent
                statuses[position], bodies[position] = status, body

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        start = time.perf_counter()
        if args.setup_only:
            return {"setup_s": start - T0}
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        health_after = json.loads(http_call(port, "GET", "/healthz")[1])
        server.stdin.close()
        final = json.loads(server.stdout.readline())
        server.wait(timeout=WAIT_S)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    counters = service_counters(health_before["scheduler"], health_after["scheduler"],
                                health_before["store"], health_after["store"])
    counters["mapping.mappings_evaluated"] = 0
    # Checked after the timed phase: each response must decode to the
    # warm-up result of its request, however the server formats it.
    failed = [
        status != 200 or not same_payload(body, warm[trace[position]])
        for position, (status, body) in enumerate(zip(statuses, bodies))
    ]
    check = {"wrappers_left": final.get("wrappers_left", 0)}
    if args.check:
        sample, bad = oracle_mismatches(pool, warm, args.seed)
        check.update(oracle_sampled=len(sample), oracle_mismatches=len(bad))
        bad = set(bad)
        failed = [flag or trace[position] in bad for position, flag in enumerate(failed)]
    return {
        "setup_s": start - T0, "window": [start, end], "requests": count,
        "failed": sum(failed), "latencies_s": latencies,
        "peak_rss_mb": final["peak_rss_mb"],
        "digest": digest(canonical(result) for result in warm),
        "check": check, "counters": counters,
        "profile": inputs.traffic_profile(pool, trace),
    }


# ----------------------------------------------------------------------
# fleet_hot: ShardFleet.submit in windows, the fleet parent in-process
# ----------------------------------------------------------------------
def run_fleet(args, tracer):
    from repro.service import EvaluationRequest, EvaluationScheduler, ResultStore
    from repro.service.shard import FleetSupervisor, ShardFleet

    pool, trace = inputs.hot_traffic(args.seed, inputs.FLEET_SHAPE)
    requests = [EvaluationRequest.from_dict(entry) for entry in pool]
    store_dir = Path(args.dir) / "fleet-store"
    fleet = ShardFleet(shards=CORES, store_dir=str(store_dir))
    try:
        FleetSupervisor(fleet).start()
        health_before = fleet.health()
        count = len(trace)
        done = [0.0] * count
        latencies = [0.0] * count
        results = [None] * count
        failed = [False] * count
        reply_wait = 0.0

        start = time.perf_counter()
        if args.setup_only:
            return {"setup_s": start - T0}
        for first in range(0, count, FLEET_WINDOW):
            window_start = time.perf_counter()
            futures = []
            for position in range(first, min(first + FLEET_WINDOW, count)):
                future = fleet.submit(requests[trace[position]])
                future.add_done_callback(
                    lambda _, p=position: done.__setitem__(p, time.perf_counter())
                )
                futures.append((position, future))
            sent = time.perf_counter()
            for position, future in futures:
                try:
                    results[position] = future.result(timeout=WAIT_S)
                except Exception as error:  # noqa: BLE001 - a fault is a miss
                    failed[position] = True
                    print(f"fleet_hot request {position} failed: {error!r}", file=sys.stderr)
                done[position] = done[position] or time.perf_counter()
                latencies[position] = done[position] - window_start
            reply_wait += time.perf_counter() - sent
        end = time.perf_counter()
        health_after = fleet.health()
        pids = [client.process.pid for _, client in fleet.serving_clients()]
        rss = max([peak_rss_mb()] + [peak_rss_mb(pid) for pid in pids])
    finally:
        fleet.close()
        shutil.rmtree(store_dir, ignore_errors=True)

    counters = service_counters(health_before["scheduler"], health_after["scheduler"],
                                health_before["store"], health_after["store"])
    # The cold fleet searches each unique mapping request once.
    counters["mapping.mappings_evaluated"] = mappings_evaluated(
        {trace[position]: result for position, result in enumerate(results)}.values()
    )
    submitted = [
        delta(shard.get("scheduler", {}), health_before["shards"].get(sid, {}).get("scheduler", {}),
              "submitted")
        for sid, shard in health_after["shards"].items()
    ]
    counters["fleet.shard_skew"] = ratio(max(submitted), sum(submitted) / len(submitted))
    counters["fleet.redispatched"] = health_after.get("supervisor", {}).get("redispatched_ops", 0)
    counters["fleet.reply_wait_s"] = reply_wait

    # Every duplicate of a hash must carry the identical payload.
    served = {}
    for position, result in enumerate(results):
        if result is None:
            continue
        text = canonical(result)
        first = served.setdefault(trace[position], text)
        if text != first:
            failed[position] = True
    texts = [served.get(index, "") for index in range(len(pool))]
    check = {}
    if args.check:
        # Bitwise agreement with one in-process scheduler over the pool.
        reference = EvaluationScheduler(store=ResultStore(), workers=1).evaluate_batch(requests)
        differ = {index for index, result in enumerate(reference)
                  if canonical(result) != texts[index]}
        sample, bad = oracle_mismatches(pool, reference, args.seed)
        check = {"reference_mismatches": len(differ), "oracle_sampled": len(sample),
                 "oracle_mismatches": len(bad)}
        differ |= set(bad)
        failed = [flag or trace[position] in differ for position, flag in enumerate(failed)]
    return {
        "setup_s": start - T0, "window": [start, end], "requests": count,
        "failed": sum(failed), "latencies_s": latencies, "peak_rss_mb": rss,
        "digest": digest(texts), "check": check, "counters": counters,
        "profile": inputs.traffic_profile(pool, trace),
    }


WORKLOADS = {"serve_hot": run_serve, "fleet_hot": run_fleet}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    tracer = None
    # The server child traces itself; every other pass traces in-process.
    if args.trace and args.workload != "serve_hot":
        from tracer import Tracer

        tracer = Tracer().install()
        if args.workload == "fleet_hot":
            trace_shard_workers(tracer, args.dir)
    record = WORKLOADS[args.workload](args, tracer)
    if args.setup_only:
        with open(Path(args.dir) / "pass.json", "w") as handle:
            json.dump(record, handle)
        return 0
    if tracer is not None:
        tracer.dump(str(Path(args.dir) / f"spans-{os.getpid()}.json"))
        tracer.uninstall()
        record["check"]["wrappers_left"] = len(tracer.leftovers())
    record["timed_s"] = record["window"][1] - record["window"][0]
    with open(Path(args.dir) / "pass.json", "w") as handle:
        json.dump(record, handle)
    return 0


def trace_shard_workers(tracer, directory: str) -> None:
    """Make each forked shard worker write its own spans when it exits.

    Workers fork from this process and so inherit the installed wrappers;
    they start with an empty span list and dump it after their loop ends.
    """
    import repro.service.shard.worker as worker_module

    worker_main = worker_module._worker_main

    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        try:
            worker_main(*args, **kwargs)
        finally:
            tracer.dump(str(Path(directory) / f"spans-{os.getpid()}.json"))

    tracer.patch(worker_module, "_worker_main", traced_worker_main)


if __name__ == "__main__":
    sys.exit(main())
