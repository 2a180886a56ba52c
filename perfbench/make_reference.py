"""Regenerate perfbench/reference.json, the expected stats of every cell.

    python3 perfbench/make_reference.py

Simulates every cell any workload can run: the scale-1.0 primary matrix
of paper-cold, the 9 variants x 12 kernels at scale 0.1, and every
design-sweep override point.  Run it only when a change is meant to
alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import common
from common import KERNELS, PRIMARY, VARIANTS, cell_id, digest, payload


def main() -> int:
    common.require_source()
    from repro.harness.experiment import TraceCache, run_model
    from repro.service.spec import JobSpec

    import sweep
    import warm
    from run import COLD_SCALE

    cells = {}
    cold = TraceCache(COLD_SCALE)
    for workload in KERNELS:
        for model in PRIMARY:
            stats = run_model(model, cold.trace(workload))
            cells[cell_id(COLD_SCALE, {}, workload, model)] = digest(
                payload(stats))
    small = TraceCache(warm.SCALE)
    for overrides, models in [({}, VARIANTS)] + sweep.points():
        for workload in KERNELS:
            config = JobSpec(workloads=(workload,), models=models,
                             scale=sweep.SCALE,
                             machine=dict(overrides)).machine_config()
            for model in models:
                stats = run_model(model, small.trace(workload), config)
                cells[cell_id(sweep.SCALE, overrides, workload,
                              model)] = digest(payload(stats))
    common.REFERENCE.write_text(json.dumps(
        {"cells": dict(sorted(cells.items()))}, indent=1) + "\n")
    print(f"wrote {len(cells)} cell digests to {common.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
