"""Benchmark harness configuration.

Each ``bench_*`` module regenerates one paper table or figure: it runs
the experiment driver (timed via pytest-benchmark), asserts the paper's
qualitative shape, and prints the same rows/series the paper reports
(visible with ``pytest benchmarks/ --benchmark-only -s``; recorded in
EXPERIMENTS.md).  A run writes no file: measured performance lives in
the repo benchmark (``benchmarks/perf/``), deterministic pins in the
tier-1 tests.
"""

import pytest


@pytest.fixture
def show(capsys):
    """Print a report so it survives pytest's capture (shown with -s)."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _show
