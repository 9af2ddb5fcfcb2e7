"""Make the benchmark's modules and the ``repro`` package importable."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


import pytest  # noqa: E402


TINY_GRID = dict(topology="grid:3x3:3", image_size=2048, k=8, n=12, seed=3)


@pytest.fixture
def tiny_traced():
    """Run a tiny recorded grid pass under a given (installed) tracer."""
    from repro.experiments.scenarios import MultiHopScenario
    from workloads import WORKLOADS, run_pass

    def run(tracer):
        return run_pass(WORKLOADS["grid_recorded"],
                        [MultiHopScenario(**TINY_GRID)], tracer)

    return run
