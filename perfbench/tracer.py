"""Span tracing of the program's layers, installed from outside the program.

The benchmark wraps each layer's public functions where their callers look
them up: the class attribute for a method, and every ``repro`` module
global bound to the function for a plain function (``from x import f``
copies the binding, so patching only the defining module would miss
those callers).  Each call records a span ``(id, parent, name, start,
end)`` in memory; :meth:`Tracer.dump` writes the spans out when a process
is done.  A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(span name, module, attribute path)`` of every traced function.
#: Several functions may share one name; their self times add up.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("requests.parse", "repro.service.requests", "EvaluationRequest.from_dict"),
    ("requests.parse", "repro.service.requests", "EvaluationRequest.from_json"),
    ("requests.hash", "repro.service.requests", "EvaluationRequest.content_hash"),
    ("requests.encode", "repro.service.requests", "EvaluationRequest.to_dict"),
    ("requests.encode", "repro.service.requests", "EvaluationRequest.transport_dict"),
    ("store.get", "repro.service.store", "ResultStore.get"),
    ("store.put", "repro.service.store", "ResultStore.put"),
    ("scheduler.submit", "repro.service.scheduler", "EvaluationScheduler.submit"),
    ("scheduler.tick", "repro.service.scheduler", "EvaluationScheduler.run_pending"),
    ("http.handle", "repro.service.http", "EvaluationServiceHandler.do_POST"),
    ("fleet.submit", "repro.service.shard.worker", "ShardFleet.submit"),
    ("fleet.frame", "repro.service.shard.protocol", "encode_frame"),
    ("fleet.decode", "repro.service.shard.protocol", "FrameDecoder.feed"),
    ("derive.many", "repro.core.fast_pipeline", "PerActionEnergyCache.derive_many"),
    ("config_batch.derive", "repro.core.config_batch", "derive_config_batch"),
    ("config_batch.area", "repro.core.config_batch", "area_config_batch"),
    ("slicing.slice", "repro.representation.slicing", "encode_and_slice"),
    ("slicing.slice", "repro.representation.slicing", "Slicing.slice_pmfs"),
    ("encoding.encode", "repro.representation.encoding", "Encoding.encode_pmf"),
    ("profile.layer", "repro.workloads.distributions", "profile_layer"),
    ("grid.run", "repro.core.batch", "BatchRunner.run_grid"),
    ("macro.evaluate_layer", "repro.architecture.macro", "CiMMacro.evaluate_layer"),
    ("mapping.search", "repro.mapping.batch_search", "batch_search"),
)

#: Functions only counted, not timed: one span per grid cell would cost
#: more than the cell's own bookkeeping, whose time stays in ``grid.run``.
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("grid.cells", "repro.core.batch", "_evaluate_grid_cell"),
)

#: Span names whose result size (bytes) is summed as well.
MEASURED = {"fleet.frame": len}

#: Modules imported before patching, so every ``from x import f`` binding
#: that the workloads reach already exists when the globals are scanned.
PRELOAD = (
    "repro.service",
    "repro.service.http",
    "repro.service.shard",
    "repro.core.model",
    "repro.core.config_batch",
    "repro.architecture.system",
    "repro.mapping",
)

Span = Tuple[int, int, str, float, float]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(name, time, amount)``: counted calls and measured result sizes.
        self.events: List[Tuple[str, float, int]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._owners: List[object] = []
        #: id(replacement) -> (replacement, original), kept for the tracer's
        #: life so :meth:`leftovers` can still recognise a wrapper.
        self._replacements: Dict[int, Tuple[object, object]] = {}
        self.names: set = set()

    # ------------------------------------------------------------------
    def wrap(self, name: str, function: Callable,
             measure: Optional[Callable] = None) -> Callable:
        """``function`` recording one span per call."""
        spans, events, local, ids = self.spans, self.events, self._local, self._ids
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if measure is not None:
                events.append((name, start, measure(result)))
            return result

        return traced

    def counter(self, name: str, function: Callable) -> Callable:
        """``function`` counting its calls under ``name``."""
        events, clock = self.events, time.perf_counter

        @functools.wraps(function)
        def counted(*args, **kwargs):
            events.append((name, clock(), 1))
            return function(*args, **kwargs)

        return counted

    def reset(self) -> None:
        """Forget recorded spans and events (a forked child starts clean)."""
        del self.spans[:]
        del self.events[:]

    # ------------------------------------------------------------------
    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        """Set ``owner.attribute``; :meth:`uninstall` puts the old value back."""
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        self._owners.append(owner)
        self._replacements[id(replacement)] = (replacement, original)
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        """Wrap every target where its callers look it up."""
        for module_name in PRELOAD:
            importlib.import_module(module_name)
        for name, module_name, path in SPAN_TARGETS:
            self._install_one(
                name, module_name, path,
                lambda function, name=name: self.wrap(name, function, MEASURED.get(name)),
            )
        for name, module_name, path in COUNT_TARGETS:
            self._install_one(
                name, module_name, path,
                lambda function, name=name: self.counter(name, function),
            )
        return self

    def _install_one(self, name: str, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        self.names.add(name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                self.patch(owner, attribute, classmethod(make(raw.__func__)))
            else:
                self.patch(owner, attribute, make(raw))
            return
        original = getattr(module, path)
        replacement = make(original)
        for site, attribute in binding_sites(original):
            self.patch(site, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        # A module imported while tracing may have copied a wrapper with
        # ``from x import f``; point those bindings back as well.
        for owner, attribute in self.leftovers():
            setattr(owner, attribute, self._replacements[id(vars(owner)[attribute])][1])

    def leftovers(self) -> List[Tuple[object, str]]:
        """Bindings that still hold one of this tracer's wrappers."""
        found = []
        for owner in {id(o): o for o in self._owners + _repro_modules()}.values():
            for attribute, value in list(vars(owner).items()):
                known = self._replacements.get(id(value))
                if known is not None and known[0] is value:
                    found.append((owner, attribute))
        return found

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write this process's spans and events as JSON."""
        payload = {"pid": os.getpid(), "spans": list(self.spans),
                   "events": list(self.events)}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _repro_modules() -> List[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def binding_sites(function: object) -> List[Tuple[object, str]]:
    """Every loaded ``repro`` module global that is bound to ``function``."""
    return [
        (module, attribute)
        for module in _repro_modules()
        for attribute, value in list(vars(module).items())
        if value is function
    ]


def load_dumps(paths: Iterable[str]) -> List[Dict]:
    dumps = []
    for path in paths:
        with open(path) as handle:
            dumps.append(json.load(handle))
    return dumps


def layer_times(dumps: Sequence[Dict], window: Tuple[float, float]) -> Tuple[Dict, float]:
    """Per-name ``{"calls", "self_s", "total_s", "amount"}`` of spans and
    events inside ``window``, plus the seconds of the window that top-level
    spans cover.

    ``calls`` and ``total_s`` count outermost calls only: a span directly
    inside a span of the same name (``from_json`` calling ``from_dict``) is
    part of one operation.  Children come from the same thread's call stack, so they
    nest inside their parent one after another and their durations add
    up to the time they cover.  Process clocks are comparable because
    ``time.perf_counter`` reads the system-wide monotonic clock.
    """
    low, high = window
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "amount": 0}
    )
    top: List[Tuple[float, float]] = []
    for dump in dumps:
        spans = dump["spans"]
        names = {span[0]: span[2] for span in spans}
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent:
                child_time[parent] += end - start
        for span_id, parent, name, start, end in spans:
            if not low <= start <= high:
                continue
            entry = totals[name]
            entry["self_s"] += (end - start) - child_time[span_id]
            if names.get(parent) != name:
                entry["calls"] += 1
                entry["total_s"] += end - start
            if parent not in names:
                top.append((max(start, low), min(end, high)))
        for name, moment, amount in dump["events"]:
            if low <= moment <= high:
                totals[name]["amount"] += amount
    return dict(totals), _union_length(top)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
