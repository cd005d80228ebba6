"""Per-layer timings of the sequential walk, on pytest-benchmark.

    PYTHONPATH=src python -m pytest bench --benchmark-json=change.json

Run from the root of a source checkout.  ``testpaths`` keeps these out of
the test suite.  ``bench/compare.py`` folds runs of two checkouts into one
``BENCH_<n>.json`` record.  The groups follow the layers: the kernel's
``left_multiply`` at d = 2, 4 and 8; ``simulate`` over 3e4 steps; the
``simulate`` subcommand writing its 3e4-row CSV; a 1e4-step ``decay_check``.
"""

import json

import numpy as np
import pytest

from chaoslab import LogScaledMatrix, MatrixSystem, decay_check, doubling_law, shear_pair, simulate
from chaoslab.cli import main

DIAG = MatrixSystem([np.diag([0.5, 0.5]), np.diag([2.0, 2.0])])


@pytest.mark.benchmark(group="kernel")
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_left_multiply(benchmark, dim):
    rng = np.random.default_rng(dim)
    state = LogScaledMatrix.from_matrix(rng.standard_normal((dim, dim)))
    benchmark(state.left_multiply, rng.standard_normal((dim, dim)))


@pytest.mark.benchmark(group="analyses")
def test_simulate(benchmark):
    traj = benchmark(simulate, DIAG, doubling_law(), [0.3, -1.2], 30000)
    assert traj.horizon == 30000


@pytest.mark.benchmark(group="analyses")
def test_decay_check(benchmark):
    report = benchmark(decay_check, shear_pair(0.6, 0.6), doubling_law(), 10000)
    assert report.horizon == 10000


@pytest.mark.benchmark(group="cli")
def test_cmd_simulate_csv(benchmark, tmp_path):
    system, law, table = (str(tmp_path / name) for name in ("diag.json", "law.json", "t.csv"))
    with open(system, "w") as fh:
        json.dump({"dim": 2, "matrices": {str(label): g.tolist()
                                          for label, g in enumerate(DIAG.generators, 1)}}, fh)
    with open(law, "w") as fh:
        json.dump({"type": "doubling"}, fh)
    argv = ["simulate", "--system", system, "--law", law, "--x0", "0.3,-1.2",
            "--horizon", "30000", "--csv", table]
    assert benchmark(main, argv) == 0
