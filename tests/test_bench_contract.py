"""One pass of every benchmark workload, untraced, with its output checks.

The benchmark in ``bench/`` is frozen between its own changes, and its jobs
call the library directly (``est.operator.mat``, ``trace_distance``,
``symmetric_projector``, ``.dim`` and the CLI's exit codes and CSVs). A
library change that breaks one of those calls or moves a pinned value fails
here, as a named job with its problems, instead of in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import jobs
        import run

        yield jobs, run
    finally:
        sys.path.remove(str(BENCH))
        for name in ("jobs", "run"):
            sys.modules.pop(name, None)


def test_one_pass_of_every_workload_has_no_failed_job(bench):
    jobs, run = bench
    problems = {}
    for workload in run.WORKLOADS:
        jobs.setup(workload)
        result = run.run_pass(jobs.build(workload), seed=7, index=0)
        assert result.outcomes
        for job, outcome in result.outcomes:
            if outcome.problems:
                problems[f"{workload}/{job.name}"] = outcome.problems
    assert problems == {}
