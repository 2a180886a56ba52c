"""Run cell grids as sweep-service jobs, for tests that cover both
routes to the experiment engine (``repro sweep`` and ``repro serve``).
"""

import asyncio

from repro.service import SweepService


def run_jobs(specs, runner=None):
    """Run each spec as a job, one after another, on one
    ``SweepService(jobs=2)``; returns each job's folded report."""
    service = SweepService(jobs=2, runner=runner)

    async def drive():
        reports = []
        for spec in specs:
            job = service.submit(spec)
            async for _ in job.stream():
                pass
            reports.append(job.report)
        return reports

    try:
        return asyncio.run(drive())
    finally:
        service.shutdown()
