"""Seeded request generators for the benchmark workloads.

Every request is a plain dict in the service's request schema, built here
and nowhere else, so a change to the program cannot change the traffic.
The same seed always gives the same requests in the same order.

``hot_traffic`` builds a hotspot trace over a small unique pool; the HTTP
serving workload and the shard-fleet workload each use it at their own
shape.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, NamedTuple, Sequence, Tuple

MACRO = "base_macro"

#: The hot-traffic grid (180 configs per family).
HOT_ADC_BITS = (4, 5, 6, 7, 8)
HOT_VDD = (0.8, 0.9, 1.0, 1.1)
HOT_COLUMNS_PER_ADC = (4, 8, 16)
HOT_INPUT_BITS = (4, 6, 8)
#: Single-layer workloads of the energy families.
ENERGY_LAYERS = ("mvm_48x48", "mvm_64x64", "mvm_96x96")
#: The fleet's fourth family: mapping searches on one layer.
MAPPING_LAYER = "conv_14x14x64_k3_f64"
NUM_MAPPINGS = 128


class Shape(NamedTuple):
    """Trace length, unique pool size and whether mapping searches join."""

    length: int
    unique: int
    mappings: bool


SERVE_SHAPE = Shape(4000, 80, mappings=False)
FLEET_SHAPE = Shape(8000, 400, mappings=True)


def _grid(adc_bits, vdd, columns_per_adc, input_bits) -> List[Dict[str, object]]:
    return [
        {"adc_resolution": adc, "vdd": v, "columns_per_adc": cpa, "input_bits": bits}
        for adc in adc_bits
        for v in vdd
        for cpa in columns_per_adc
        for bits in input_bits
    ]


def hot_traffic(seed: int, shape: Shape) -> Tuple[List[Dict], List[int]]:
    """A hotspot trace: ``(pool, trace)`` where ``trace`` indexes ``pool``.

    The pool is a seed-chosen set of unique requests over the grid: energy
    on three single-layer families and, when ``shape.mappings``, a fourth
    family of ``NUM_MAPPINGS``-mapping searches under one seed-chosen
    search seed.  Each family holds an equal share of the pool, so the
    work a trace asks for does not depend on the seed.  Every pool entry
    appears once; the rest of the trace draws from a seed-shuffled
    popularity ranking with weight ``1 / (rank + 1)``, so a few requests
    take most duplicates.
    """
    rng = random.Random(seed)
    grid = _grid(HOT_ADC_BITS, HOT_VDD, HOT_COLUMNS_PER_ADC, HOT_INPUT_BITS)
    families = [{"workload": layer, "objective": "energy"} for layer in ENERGY_LAYERS]
    if shape.mappings:
        families.append({"workload": MAPPING_LAYER, "objective": "mappings",
                         "num_mappings": NUM_MAPPINGS, "seed": rng.randrange(1 << 16)})
    share, left = divmod(shape.unique, len(families))
    pool = []
    for rank, family in enumerate(families):
        pool += [{"macro": MACRO, **family, "overrides": dict(overrides)}
                 for overrides in rng.sample(grid, share + (rank < left))]
    rng.shuffle(pool)
    length, unique = shape.length, shape.unique
    ranking = list(range(unique))
    rng.shuffle(ranking)
    weights = [1.0 / (rank + 1) for rank in range(unique)]
    trace = list(range(unique)) + rng.choices(ranking, weights=weights, k=length - unique)
    rng.shuffle(trace)
    return pool, trace


def family_of(request: Dict[str, object]) -> Tuple:
    """The request's config family: what the scheduler batches together."""
    if request["objective"] == "mappings":
        return ("mappings", request["workload"], request["num_mappings"], request["seed"])
    return ("energy", request["workload"])


def traffic_profile(pool: Sequence[Dict], trace: Sequence[int]) -> Dict[str, object]:
    """Requests, uniques, duplicate fraction, families and objective mix."""
    objectives = Counter(pool[index]["objective"] for index in trace)
    return {
        "requests": len(trace),
        "unique_requests": len(set(trace)),
        "duplicate_fraction": 1.0 - len(set(trace)) / len(trace),
        "families": len({family_of(pool[index]) for index in set(trace)}),
        "objective_mix": {
            objective: count / len(trace) for objective, count in sorted(objectives.items())
        },
    }
