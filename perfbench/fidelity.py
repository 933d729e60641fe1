"""Agreement of the model with the paper's published macro data (Figs. 6-10).

All five numbers are deterministic; the benchmark computes them once per
run, after every timed phase.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict


def _efficiency_error_pct(rows) -> float:
    """Mean |model / reference - 1| of TOPS/W over rows with a reference, in %."""
    return 100.0 * mean(
        abs(row.tops_per_watt / row.reference_tops_per_watt - 1.0)
        for row in rows if row.reference_tops_per_watt
    )


def _breakdown_error_pp(rows) -> float:
    """Mean |model - reference| of category fractions, in percentage points."""
    gaps = []
    for row in rows:
        if not row.reference:
            continue
        for category in sorted(set(row.fractions) | set(row.reference)):
            gaps.append(abs(row.fractions.get(category, 0.0) - row.reference.get(category, 0.0)))
    return 100.0 * mean(gaps)


def fidelity() -> Dict[str, float]:
    from repro.experiments.fig06 import run_fig6
    from repro.experiments.fig07 import run_fig7
    from repro.experiments.fig08 import run_fig8
    from repro.experiments.fig09 import run_fig9
    from repro.experiments.fig10 import run_fig10

    return {
        "fig6_err_pct": run_fig6().cimloop_avg_error,
        "fig7_err_pct": _efficiency_error_pct(run_fig7()),
        "fig8_err_pct": _efficiency_error_pct(run_fig8()),
        "fig9_err_pct": _breakdown_error_pp(run_fig9()),
        "fig10_err_pct": _breakdown_error_pp(run_fig10()),
    }
