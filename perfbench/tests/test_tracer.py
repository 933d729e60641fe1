"""Self-tests of the benchmark's tracer (``perfbench/tracer.py``) and of how
run.py reduces passes to one figure.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
for path in (str(BENCH), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from tracer import (  # noqa: E402
    COUNT_TARGETS,
    SPAN_TARGETS,
    Tracer,
    binding_sites,
    layer_times,
)


def _dump(tracer):
    return {"spans": list(tracer.spans), "events": list(tracer.events)}


def test_self_time_subtracts_the_time_children_cover():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    inner = tracer.wrap("inner", leaf)

    def body():
        inner()
        inner()
        return sum(range(5000))

    outer = tracer.wrap("outer", body)
    outer()
    spans = {span[2]: [] for span in tracer.spans}
    for span in tracer.spans:
        spans[span[2]].append(span)
    (outer_span,) = spans["outer"]
    children = spans["inner"]
    assert all(child[1] == outer_span[0] for child in children)

    totals, covered = layer_times([_dump(tracer)], (outer_span[3], outer_span[4]))
    child_time = 0.0
    for child in children:
        child_time += child[4] - child[3]
    assert math.isclose(
        totals["outer"]["self_s"], (outer_span[4] - outer_span[3]) - child_time,
        rel_tol=0.0, abs_tol=1e-12,
    )
    assert math.isclose(totals["inner"]["self_s"], child_time, rel_tol=0.0, abs_tol=1e-12)
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 2
    # Only the top-level span counts towards coverage, clipped to the window.
    assert math.isclose(covered, outer_span[4] - outer_span[3], rel_tol=0.0, abs_tol=1e-12)


def test_a_call_nested_in_its_own_name_is_one_operation():
    tracer = Tracer()
    parse = tracer.wrap("parse", lambda text: len(text))
    parse_json = tracer.wrap("parse", lambda text: parse(text))
    parse_json("{}")
    (low, high) = (min(s[3] for s in tracer.spans), max(s[4] for s in tracer.spans))
    totals, _ = layer_times([_dump(tracer)], (low, high))
    assert totals["parse"]["calls"] == 1
    outermost = [s for s in tracer.spans if s[1] == 0]
    assert math.isclose(totals["parse"]["total_s"], outermost[0][4] - outermost[0][3])


def test_spans_outside_the_window_are_left_out():
    tracer = Tracer()
    step = tracer.wrap("step", lambda: None)
    step()
    step()
    first, second = tracer.spans
    totals, covered = layer_times([_dump(tracer)], (second[3], second[4]))
    assert totals["step"]["calls"] == 1
    assert covered == second[4] - second[3]


def _targets():
    import importlib

    found = []
    for name, module_name, path in SPAN_TARGETS + COUNT_TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            found.append((name, [(owner, attribute)], vars(owner)[attribute]))
        else:
            original = getattr(module, path)
            found.append((name, binding_sites(original), original))
    return found


def test_install_wraps_every_binding_and_uninstall_restores_them():
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {
            (id(owner), attribute)
            for owner, attribute, _ in tracer._patches
        }
        assert tracer.names == {name for name, _, _ in SPAN_TARGETS + COUNT_TARGETS}
    finally:
        tracer.uninstall()
    for name, sites, original in _targets():
        assert sites, f"{name}: no binding found"
        for owner, attribute in sites:
            assert (id(owner), attribute) in wrapped, f"{name}: {attribute} was not wrapped"
            assert vars(owner)[attribute] is original, f"{name}: {attribute} not restored"
    assert tracer.leftovers() == []


def test_functions_imported_by_name_are_wrapped_in_the_importing_module():
    import repro.core.config_batch as config_batch

    tracer = Tracer().install()
    try:
        # config_batch did ``from repro.representation.slicing import
        # encode_and_slice``; its own global must be the traced one.
        assert config_batch.encode_and_slice.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(config_batch.encode_and_slice, "__wrapped__")


def test_every_wrapper_is_exercised_by_some_workload():
    exercised = set().union(*run.EXERCISED.values())
    assert exercised == {name for name, _, _ in SPAN_TARGETS + COUNT_TARGETS}
    named = {name for name, _ in run.SPAN_METRICS.values()}
    assert named <= exercised


_MINI_RUN = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
from tracer import Tracer, layer_times
from repro.service import EvaluationRequest, EvaluationScheduler, ResultStore

def evaluate():
    requests = [EvaluationRequest.from_dict(payload) for payload in (
        {{"macro": "base_macro", "workload": "mvm_48x48", "objective": "energy",
          "overrides": {{"adc_resolution": 6, "vdd": 0.85}}}},
        {{"macro": "base_macro", "objective": "area", "overrides": {{"vdd": 0.85}}}},
        {{"macro": "base_macro", "workload": "mvm_48x48", "objective": "mappings",
          "num_mappings": 64, "seed": 5, "overrides": {{"vdd": 0.85}}}},
    )]
    scheduler = EvaluationScheduler(store=ResultStore(), workers=1)
    return [json.dumps(r, sort_keys=True) for r in scheduler.evaluate_batch(requests)]

tracer = Tracer().install()
traced = evaluate()
tracer.uninstall()
untraced = evaluate()
totals, _ = layer_times([{{"spans": tracer.spans, "events": tracer.events}}],
                        (float("-inf"), float("inf")))
print(json.dumps({{"equal": traced == untraced, "leftovers": len(tracer.leftovers()),
                  "recorded": sorted(n for n, t in totals.items()
                                     if t["calls"] or t["amount"])}}))
"""


def test_traced_outputs_equal_untraced_outputs_in_a_fresh_process():
    script = _MINI_RUN.format(bench=str(BENCH), src=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        check=True,
    )
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["equal"]
    assert summary["leftovers"] == 0
    # Every span the fleet's shards record, but the fleet's own.
    expected = {name for name in run.EXERCISED["fleet_hot"] if not name.startswith("fleet.")}
    assert expected <= set(summary["recorded"])


def test_each_figure_is_the_median_of_the_passes_own_figures():
    # Three passes of 20 requests.  In every pass one request in twenty
    # stalls, at a different position each time: each pass's own p95
    # sees its stall, so the run's p95 does too.
    records = []
    for stalled in (3, 11, 17):
        latencies = [0.001] * 20
        latencies[stalled] = 0.100
        records.append({"requests": 20, "timed_s": 0.5, "latencies_s": latencies})
    records[1]["timed_s"] = 2.0
    figures = run.median_figures(records)
    assert figures["requests_per_s"] == 40.0
    assert figures["latency_p50_ms"] == 1.0
    assert math.isclose(figures["latency_p95_ms"], 1e3 * (0.001 + 0.05 * 0.099))
    assert figures["latency_p95_ms"] > 5.0


def test_the_pass_count_does_not_depend_on_the_programs_speed():
    assert run.pass_count("fleet_hot", 30) == round(30 / run.NOMINAL_PASS_S["fleet_hot"])
    assert run.pass_count("serve_hot", 1) == run.MIN_PASSES
