import math

import numpy as np
import pytest

from chaoslab import (
    BudgetExceededError,
    InvalidInputError,
    MatrixSystem,
    PeriodicLaw,
    Word,
    build_shear_block_system,
    classify_periodic,
    decay_check,
    extremal_norm_estimate,
    growth_curve,
    growth_verdict,
    irreducibility,
    jsr_bracket,
    lyapunov_mc,
    periodic_stability,
    polynomial_growth_exponent,
    product_unbounded_probe,
    shear_pair,
    word_product,
)
from chaoslab.stability import BOUNDED_SO_FAR, GROWING

from conftest import RHO_SHEAR, random_invertible


# ---------------------------------------------------------------------------
# periodic stability


def test_stability_shear_pair(shear06):
    verdict = periodic_stability(shear06, 10)
    assert verdict.stable
    assert verdict.checked_up_to == 10
    assert verdict.worst_word.symbols == (1, 2)
    assert verdict.worst_radius == pytest.approx(RHO_SHEAR, abs=1e-9)


def test_stability_diag_pair_fails_at_length_one(diag_pair):
    verdict = periodic_stability(diag_pair, 5)
    assert not verdict.stable
    assert verdict.stable_up_to == 0
    assert verdict.worst_word.symbols == (2,)
    assert verdict.worst_radius == pytest.approx(2.0, abs=1e-12)


def test_stability_radius_one_is_not_stable(single_shear):
    verdict = periodic_stability(single_shear, 4)
    assert not verdict.stable
    assert verdict.worst_radius == pytest.approx(1.0, abs=1e-12)


def test_stability_budget_truncation(shear06):
    verdict = periodic_stability(shear06, 10, budget=10)
    assert verdict.truncated
    assert verdict.checked_up_to < 10
    assert not verdict.stable


def test_stability_validation(shear06):
    with pytest.raises(InvalidInputError):
        periodic_stability(shear06, 0)
    with pytest.raises(InvalidInputError):
        periodic_stability(shear06, 3, tol=1.5)


def test_normalized_radius_is_rotation_invariant(shear06):
    rng = np.random.default_rng(13)
    gens = shear06.generators
    for _ in range(100):
        n = int(rng.integers(2, 9))
        syms = tuple(int(s) for s in rng.integers(1, 3, n))
        rot = syms[1:] + syms[:1]
        a = word_product(gens, syms)
        b = word_product(gens, rot)
        from chaoslab import spectral_radius

        ra = a.log_scale + math.log(spectral_radius(a.unit).radius)
        rb = b.log_scale + math.log(spectral_radius(b.unit).radius)
        assert ra == pytest.approx(rb, abs=1e-9)


# ---------------------------------------------------------------------------
# jsr bracketing


def test_jsr_shear_pair_is_tight(shear06):
    bracket = jsr_bracket(shear06, budget=10**6, target_gap=0.008)
    assert bracket.lower == pytest.approx(RHO_SHEAR, abs=1e-9)
    assert bracket.upper == pytest.approx(RHO_SHEAR, abs=1e-9)
    assert bracket.lower_witness.symbols == (1, 2)
    assert bracket.converged
    assert bracket.nodes <= 10


def test_jsr_scalar_pair_is_exact(diag_pair):
    bracket = jsr_bracket(diag_pair, budget=1000)
    assert bracket.lower == 2.0
    assert bracket.upper == 2.0
    assert bracket.lower_witness.symbols == (2,)


def test_jsr_single_shear(single_shear):
    bracket = jsr_bracket(single_shear, budget=10**5, target_gap=0.01)
    assert bracket.lower == pytest.approx(1.0, abs=1e-12)
    assert 1.0 <= bracket.upper <= 1.0101
    assert bracket.converged


def test_jsr_budget_exhaustion(single_shear):
    bracket = jsr_bracket(single_shear, budget=40, target_gap=0.001)
    assert not bracket.converged
    assert bracket.upper > bracket.lower
    assert bracket.nodes <= 40
    # still a valid bracket: radius 1 sits inside
    assert bracket.lower <= 1.0 <= bracket.upper


def test_jsr_scaling_equivariance():
    system = shear_pair(0.6, 1.05)
    scaled = shear_pair(0.6 * 3.7, 1.05 * 3.7)
    a = jsr_bracket(system, budget=10**5, target_gap=0.01)
    b = jsr_bracket(scaled, budget=10**5, target_gap=0.01)
    assert b.lower == pytest.approx(3.7 * a.lower, rel=1e-9)
    assert b.upper == pytest.approx(3.7 * a.upper, rel=1e-9)
    assert b.lower_witness.symbols == a.lower_witness.symbols


def test_jsr_bracket_soundness_random():
    """lower <= upper, lower >= every generator radius, upper <= max norm."""
    from chaoslab import op_norm, spectral_radius

    rng = np.random.default_rng(41)
    for _ in range(25):
        gens = [random_invertible(rng, 2) for _ in range(2)]
        system = MatrixSystem(gens)
        bracket = jsr_bracket(system, budget=4000, target_gap=0.05)
        assert bracket.lower <= bracket.upper * (1.0 + 1e-12)
        for g in gens:
            assert bracket.lower >= spectral_radius(g).radius * (1.0 - 1e-9)
        assert bracket.upper <= max(op_norm(g) for g in gens) * (1.0 + 1e-12)


def test_jsr_validation(shear06):
    with pytest.raises(InvalidInputError):
        jsr_bracket(shear06, budget=1)
    with pytest.raises(InvalidInputError):
        jsr_bracket(shear06, target_gap=0.0)


# ---------------------------------------------------------------------------
# growth curves


def test_growth_normalized_pair_is_flat(shear06_normalized):
    curve = growth_curve(shear06_normalized, 14)
    assert np.max(np.abs(curve.log_max_norms)) < 1e-9
    assert abs(curve.fitted_exponent()) < 1e-6
    assert curve.geometric_flag is None
    assert growth_verdict(curve) == BOUNDED_SO_FAR


def test_growth_raw_pair_decays(shear06):
    curve = growth_curve(shear06, 14)
    # max norm at length n is exactly RHO_SHEAR^n
    for n in range(1, 15):
        assert curve.log_max_norms[n - 1] == pytest.approx(
            n * math.log(RHO_SHEAR), abs=1e-9
        )
    assert curve.fitted_exponent() == pytest.approx(-0.299, abs=0.05)
    assert growth_verdict(curve) == BOUNDED_SO_FAR


def test_growth_block_system_is_linear():
    scale = 1.0 / RHO_SHEAR
    curve = growth_curve(build_shear_block_system(0.6, 0.6, scale), 14)
    assert curve.fitted_exponent(even_only=True) == pytest.approx(1.0, abs=0.2)
    assert growth_verdict(curve) == GROWING
    assert curve.argmax_words[-1].symbols == (1, 2) * 7


def test_growth_diag_pair_doubles(diag_pair):
    curve = growth_curve(diag_pair, 10)
    for n in range(1, 11):
        assert curve.log_max_norms[n - 1] == pytest.approx(n * math.log(2.0), abs=1e-12)
        assert curve.argmax_words[n - 1].symbols == (2,) * n
    assert curve.geometric_flag == "geometric-growth"


def test_growth_geometric_decay_flag():
    system = MatrixSystem([np.diag([0.5, 0.5])])
    curve = growth_curve(system, 8)
    assert curve.geometric_flag == "geometric-decay"


def test_growth_curve_is_submultiplicative(shear06):
    curve = growth_curve(shear06, 12)
    logs = curve.log_max_norms
    for m in range(1, 13):
        for n in range(1, 13 - m):
            assert logs[m + n - 1] <= logs[m - 1] + logs[n - 1] + 1e-9


def test_growth_budget_truncation(shear06):
    curve = growth_curve(shear06, 14, budget=30)
    assert curve.truncated
    assert curve.n_max == 4  # 2 + 4 + 8 + 16 = 30 products fit exactly
    with pytest.raises(BudgetExceededError):
        growth_curve(shear06, 5, budget=1)


def test_polynomial_growth_exponent_values():
    assert polynomial_growth_exponent(2) == 0
    assert polynomial_growth_exponent(3) == 0
    assert polynomial_growth_exponent(4) == 1
    assert polynomial_growth_exponent(12) == 5
    with pytest.raises(InvalidInputError):
        polynomial_growth_exponent(1)


def test_growth_respects_floor_bound():
    """Measured exponents stay at or below floor(d/2) - 1 with slack."""
    scale = 1.0 / RHO_SHEAR
    flat = growth_curve(shear_pair(0.6, 0.6, scale), 14)
    assert flat.fitted_exponent() <= polynomial_growth_exponent(2) + 0.25
    block = growth_curve(build_shear_block_system(0.6, 0.6, scale), 14)
    assert block.fitted_exponent(even_only=True) <= polynomial_growth_exponent(4) + 0.25


# ---------------------------------------------------------------------------
# constructions


def test_shear_pair_entries():
    system = shear_pair(0.6, 1.05)
    assert np.allclose(system.generator(1), [[0.6, 0.6], [0.0, 0.6]])
    assert np.allclose(system.generator(2), [[1.05, 0.0], [1.05, 1.05]])
    with pytest.raises(InvalidInputError):
        shear_pair(0.0, 1.0)


def test_block_system_structure():
    system = build_shear_block_system(0.6, 0.6)
    g = system.generator(1)
    assert g.shape == (4, 4)
    f = 0.6 * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(g[:2, :2], f)
    assert np.allclose(g[:2, 2:], f)
    assert np.allclose(g[2:, :2], 0.0)
    assert np.allclose(g[2:, 2:], f)


def test_block_product_identity():
    """Products keep the shape [[P, n P], [0, P]] exactly."""
    rng = np.random.default_rng(57)
    scale = 1.0 / RHO_SHEAR
    blk = build_shear_block_system(0.6, 0.6, scale)
    pair = shear_pair(0.6, 0.6, scale)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        syms = tuple(int(s) for s in rng.integers(1, 3, n))
        p4 = blk.word_product(Word(syms, 2)).dense()
        p2 = pair.word_product(Word(syms, 2)).dense()
        assert np.allclose(p4[:2, :2], p2, rtol=1e-8, atol=1e-12)
        assert np.allclose(p4[2:, 2:], p2, rtol=1e-8, atol=1e-12)
        assert np.allclose(p4[2:, :2], 0.0, atol=1e-12)
        off = p4[:2, 2:]
        assert np.linalg.norm(off - n * p2) <= 1e-8 * np.linalg.norm(n * p2)


# ---------------------------------------------------------------------------
# extremal norm


def test_extremal_norm_normalized_pair(shear06_normalized):
    probes = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    table = extremal_norm_estimate(shear06_normalized, probes, horizon=12)
    # generators have operator norm exactly 1: nothing beats the empty word
    assert table.values == (pytest.approx(1.0, abs=1e-12),) * 2
    assert table.stabilization == pytest.approx(0.0, abs=1e-12)


def test_extremal_norm_expanding_probe(diag_pair):
    table = extremal_norm_estimate(diag_pair, [np.array([1.0, 0.0])], horizon=5)
    assert table.values[0] == pytest.approx(32.0, abs=1e-9)  # 2^5
    assert table.stabilization == pytest.approx(1.0, abs=1e-12)


def test_extremal_norm_validation(diag_pair):
    with pytest.raises(InvalidInputError):
        extremal_norm_estimate(diag_pair, [], horizon=3)
    with pytest.raises(InvalidInputError):
        extremal_norm_estimate(diag_pair, [np.ones(3)], horizon=3)
    with pytest.raises(InvalidInputError):
        extremal_norm_estimate(diag_pair, [np.array([np.inf, 0.0])], horizon=3)


# ---------------------------------------------------------------------------
# irreducibility and the probe


def test_irreducibility_scalar_pair_dimension_one(diag_pair):
    report = irreducibility(diag_pair)
    assert report.verdict == "reducible"
    assert report.algebra_dim == 1


def test_irreducibility_shear_pair_full(shear06):
    report = irreducibility(shear06)
    assert report.irreducible
    assert report.algebra_dim == 4


def test_irreducibility_single_shear(single_shear):
    report = irreducibility(single_shear)
    assert report.verdict == "reducible"
    assert report.algebra_dim == 2


def test_irreducibility_block_system():
    report = irreducibility(build_shear_block_system(0.6, 0.6))
    assert report.verdict == "reducible"
    assert report.algebra_dim == 8


def test_irreducibility_distinct_diagonal():
    system = MatrixSystem([np.diag([0.5, 2.0]), np.diag([2.0, 0.5])])
    report = irreducibility(system)
    assert report.verdict == "reducible"
    assert report.algebra_dim == 2


def test_probe_single_shear(single_shear):
    report = product_unbounded_probe(single_shear, n_max=14)
    assert report.full_verdict == GROWING
    assert len(report.restrictions) == 1
    r = report.restrictions[0]
    assert r.axis == 1
    assert r.subspace_dim == 1
    assert r.verdict == BOUNDED_SO_FAR
    assert not report.unbounded_everywhere


def test_probe_irreducible_system_has_no_restrictions(shear06):
    report = product_unbounded_probe(shear06, n_max=10)
    assert report.restrictions == ()


def test_probe_block_system_contrast():
    scale = 1.0 / RHO_SHEAR
    report = product_unbounded_probe(build_shear_block_system(0.6, 0.6, scale), n_max=12)
    assert report.full_verdict == GROWING
    assert len(report.restrictions) >= 1
    # the top two coordinates span an invariant plane on which the family
    # is the normalized shear pair: bounded
    dims = {r.subspace_dim for r in report.restrictions}
    assert 2 in dims
    for r in report.restrictions:
        if r.subspace_dim == 2:
            assert r.verdict == BOUNDED_SO_FAR
    assert not report.unbounded_everywhere


# ---------------------------------------------------------------------------
# lyapunov


def test_lyapunov_deterministic(diag_pair):
    a = lyapunov_mc(diag_pair, samples=50, horizon=100, seed=7)
    b = lyapunov_mc(diag_pair, samples=50, horizon=100, seed=7)
    assert a.value == b.value
    assert a.stderr == b.stderr


def test_lyapunov_exact_for_identical_generators():
    system = MatrixSystem([np.diag([0.5, 0.5]), np.diag([0.5, 0.5])])
    est = lyapunov_mc(system, samples=5, horizon=50, seed=1)
    assert est.value == pytest.approx(math.log(0.5), abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_lyapunov_zero_mean_for_balanced_pair(diag_pair):
    est = lyapunov_mc(diag_pair, samples=200, horizon=400, seed=0)
    assert abs(est.value) <= 3.0 * est.stderr
    assert est.measure == "iid-uniform"


def test_lyapunov_validation(diag_pair):
    with pytest.raises(InvalidInputError):
        lyapunov_mc(diag_pair, samples=0)
    with pytest.raises(InvalidInputError):
        lyapunov_mc(diag_pair, horizon=0)


# ---------------------------------------------------------------------------
# any dimension


def test_analyses_accept_any_dimension():
    """A d=10 system runs through every spectral analysis, radii per numpy."""
    rng = np.random.default_rng(41)
    gens = [random_invertible(rng, 10) for _ in range(2)]
    gens = [0.5 * g / max(abs(np.linalg.eigvals(g))) for g in gens]
    system = MatrixSystem(gens)

    def normalized(symbols):
        prod = np.eye(10)
        for sym in symbols:
            prod = gens[sym - 1] @ prod
        return max(abs(np.linalg.eigvals(prod))) ** (1.0 / len(symbols))

    verdict = periodic_stability(system, 3)
    assert verdict.worst_radius == pytest.approx(
        normalized(verdict.worst_word.symbols), rel=1e-9
    )
    bracket = jsr_bracket(system, budget=200)
    assert bracket.lower == pytest.approx(
        normalized(bracket.lower_witness.symbols), rel=1e-9
    )
    word = Word((1, 2, 2), 2)
    assert classify_periodic(system, word).radius == pytest.approx(
        normalized(word.symbols) ** 3, rel=1e-9
    )
    report = decay_check(system, PeriodicLaw(word), horizon=40)
    assert report.warning is None
    assert report.log_norms.shape == (40,)
