"""Per-layer timings of the word-tree engines, the analyses on them and the
switching laws, on pytest-benchmark.

    PYTHONPATH=src python -m pytest bench --benchmark-json=change.json

Run from the root of a source checkout, like ``test_walk_layers.py``.  The
groups follow the layers: the engines (a full ``word_tree`` walk at depth 12
and the Lyndon sweep ``necklace_log_radii`` at length 14, both on the shear
pair); the analyses on them (``periodic_stability``, ``growth_curve``,
``product_unbounded_probe`` and ``jsr_bracket``; the sweep also on a K = 3,
d = 4 Gaussian system at length 8, the growth curve also on the 4x4 shear
block at length 12, and ``jsr_bracket`` also on the
Hare-Morris-Sidorov-Theys pair and on the Gaussian system at tight gaps);
and the switching laws, each built by ``law_from_spec`` and read for 3e4
symbols.
"""

import numpy as np
import pytest

from chaoslab import (MatrixSystem, growth_curve, jsr_bracket, law_from_spec,
                      necklace_log_radii, periodic_stability, product_unbounded_probe,
                      shear_pair, word_tree)

SHEAR = shear_pair(0.6, 0.6)
# The shear pair's joint spectral radius, sqrt(rho(S2 S1)); divided out, the
# products grow polynomially.
RHO_SHEAR = 0.970820393249937
SCALED = shear_pair(0.6, 0.6, 1.0 / RHO_SHEAR)
# The 4x4 generators [[F, F], [0, F]] over the scaled pair's F: reducible,
# with an invariant plane on which products stay bounded.
BLOCK = MatrixSystem([np.block([[f, f], [np.zeros((2, 2)), f]]) for f in SCALED.generators])

# Hare, Morris, Sidorov and Theys (Adv. Math. 2011): no periodic word
# attains this pair's joint spectral radius, so no gap closes.
HMST = MatrixSystem([np.array([[1.0, 1.0], [0.0, 1.0]]),
                     0.7493265463303675 * np.array([[1.0, 0.0], [1.0, 1.0]])])
GAUSS = MatrixSystem(list(np.random.default_rng(5).standard_normal((3, 4, 4))))

LAWS = {
    "constructed": {"type": "constructed", "alphabet": 2, "prefix": [2, 2, 1], "i": [1],
                    "j": [2], "schedule": [[1, 6], [11, 46], [44, 103]]},
    "periodic": {"type": "periodic", "alphabet": 2, "word": [1, 2, 2]},
    "explicit": {"type": "explicit", "alphabet": 2, "prefix": [1, 2] * 500, "fallback": 2},
    "doubling": {"type": "doubling"},
}


@pytest.mark.benchmark(group="engines")
def test_word_tree(benchmark):
    count = benchmark(lambda: sum(1 for _ in word_tree(SHEAR.generators, 12)))
    assert count == 2**13 - 2


@pytest.mark.benchmark(group="engines")
def test_necklace_log_radii(benchmark):
    assert benchmark(lambda: sum(1 for _ in necklace_log_radii(SHEAR, 14))) > 0


@pytest.mark.benchmark(group="analyses")
def test_periodic_stability(benchmark):
    assert benchmark(periodic_stability, SHEAR, 14).stable


@pytest.mark.benchmark(group="analyses")
def test_periodic_stability_gauss(benchmark):
    assert benchmark(periodic_stability, GAUSS, 8).checked_up_to == 8


@pytest.mark.benchmark(group="analyses")
def test_growth_curve(benchmark):
    assert benchmark(growth_curve, SCALED, n_max=16).n_max == 16


@pytest.mark.benchmark(group="analyses")
def test_growth_curve_block(benchmark):
    assert benchmark(growth_curve, BLOCK, n_max=12).n_max == 12


@pytest.mark.benchmark(group="analyses")
def test_product_unbounded_probe(benchmark):
    assert len(benchmark(product_unbounded_probe, BLOCK, n_max=12).restrictions) >= 1


@pytest.mark.benchmark(group="analyses")
def test_jsr_bracket(benchmark):
    bracket = benchmark(jsr_bracket, SHEAR, budget=2000, target_gap=1e-3)
    assert bracket.lower <= bracket.upper


@pytest.mark.benchmark(group="analyses")
@pytest.mark.parametrize("system, budget, gap", [(HMST, 4000, 1e-9), (GAUSS, 2000, 1e-6)],
                         ids=["hmst", "gauss"])
def test_jsr_bracket_tight(benchmark, system, budget, gap):
    bracket = benchmark(jsr_bracket, system, budget=budget, target_gap=gap)
    assert bracket.lower <= bracket.upper


@pytest.mark.benchmark(group="switching")
@pytest.mark.parametrize("kind", LAWS)
def test_law_from_spec_sequence(benchmark, kind):
    symbols = benchmark(lambda: law_from_spec(LAWS[kind]).sequence(30000))
    assert len(symbols) == 30000
