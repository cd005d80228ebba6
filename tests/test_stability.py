import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    CONTRACTING,
    BudgetExceededError,
    InvalidInputError,
    LogScaledMatrix,
    MatrixSystem,
    PeriodicLaw,
    Word,
    classify_periodic,
    decay_check,
    growth_curve,
    growth_verdict,
    irreducibility,
    jsr_bracket,
    lyapunov_mc,
    necklace_log_radii,
    periodic_stability,
    polynomial_growth_exponent,
    product_unbounded_probe,
    shear_pair,
    simulate,
    walk,
    word_tree,
)
from chaoslab import linalg
from chaoslab.stability import BOUNDED_SO_FAR, GROWING

from conftest import (RHO_SHEAR, lyndon_count, necklace_count, random_invertible,
                      shear_block_system)


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


@pytest.mark.parametrize("budget, want", [
    (1, (0, 0, None)),
    (2, (1, 1, "1")),
    (5, (2, 2, "1-2")),
    (10, (3, 3, "1-2")),
    (100, (8, 8, "1-2")),
])
def test_stability_budget_truncation_points(budget, want):
    verdict = periodic_stability(shear_pair(0.6, 0.6), 10, budget=budget)
    assert verdict.truncated
    word = verdict.worst_word.text() if verdict.worst_word is not None else None
    assert (verdict.checked_up_to, verdict.stable_up_to, word) == want


@pytest.mark.parametrize("budget", [None, 2.5, True, -1])
def test_tree_search_budgets_are_validated(shear06, budget):
    with pytest.raises(InvalidInputError):
        periodic_stability(shear06, 3, budget=budget)
    with pytest.raises(InvalidInputError):
        growth_curve(shear06, 3, budget=budget)


def test_stability_zero_budget_checks_nothing(shear06):
    verdict = periodic_stability(shear06, 3, budget=0)
    assert verdict.truncated
    assert verdict.checked_up_to == 0
    assert verdict.worst_word is None


def _count_stacked_rows(monkeypatch):
    """Count the products the stacked engines form: one per row of each step."""
    calls = []
    inner = linalg._stacked_step

    def counted(generators, gens, index, *rest):
        calls.extend([None] * len(index))
        return inner(generators, gens, index, *rest)

    monkeypatch.setattr(linalg, "_stacked_step", counted)
    return calls


def _prenecklace_count(k, max_len):
    """Prenecklaces of lengths 1..max_len: one per nonempty prefix of each
    Lyndon word, sum over n <= max_len and i <= n of Lyd(k, i)."""
    return sum(lyndon_count(k, i) for n in range(1, max_len + 1) for i in range(1, n + 1))


def _random_k3_d4():
    return MatrixSystem(list(np.random.default_rng(0).standard_normal((3, 4, 4))))


def test_stability_sweep_forms_each_product_once(monkeypatch, shear06):
    calls = _count_stacked_rows(monkeypatch)
    assert periodic_stability(shear06, 14).checked_up_to == 14
    # one product per prenecklace; a product for every child formed 6,114
    assert len(calls) == _prenecklace_count(2, 14) == 5594
    calls.clear()
    assert periodic_stability(_random_k3_d4(), 8).checked_up_to == 8
    assert len(calls) == _prenecklace_count(3, 8) == 2157
    calls.clear()
    verdict = periodic_stability(MatrixSystem([[[0.5]]]), 1500)
    assert verdict.stable
    assert len(calls) == 1500


@pytest.mark.parametrize("system, max_len, want", [
    (_random_k3_d4(), 8, (3,)),
    (MatrixSystem([np.diag([1e200, 1e200]), np.eye(2)]), 3, (1,)),
    (MatrixSystem([[[0.5]]]), 1500, (1,)),
], ids=["k3-d4", "big", "one"])
def test_stability_worst_word_is_primitive(system, max_len, want):
    # A power w^m shares w's normalized radius up to rounding; the sweep names w.
    verdict = periodic_stability(system, max_len)
    assert verdict.worst_word.symbols == want
    log_radius = system.word_product(want).log_spectral_radius / len(want)
    assert verdict.worst_radius == pytest.approx(math.exp(log_radius), rel=1e-12)


@pytest.mark.parametrize("k, max_len", [(2, 8), (3, 5)])
def test_stability_budget_fixes_depth_and_worst_word(k, max_len):
    rng = np.random.default_rng(42)
    # each generator contracts (radius 0.99) while some longer words expand
    gens = [random_invertible(rng, 2) for _ in range(k)]
    gens = [0.99 * g / np.max(np.abs(np.linalg.eigvals(g))) for g in gens]
    system = MatrixSystem(gens)
    # Brute force over every word, rotations included, with a plain eigensolver.
    per_length = []
    radius_of = {}
    for n in range(1, max_len + 1):
        for word in itertools.product(range(1, k + 1), repeat=n):
            prod = np.eye(2)
            for sym in word:
                prod = gens[sym - 1] @ prod
            radius_of[word] = np.max(np.abs(np.linalg.eigvals(prod))) ** (1.0 / n)
        per_length.append(max(radius_of[w] for w in radius_of if len(w) == n))
    assert per_length[0] < 1.0 - 1e-6 and max(per_length) > 1.0 + 1e-6
    for budget in range(151):
        verdict = periodic_stability(system, max_len, budget=budget)
        want = max(n for n in range(max_len + 1)
                   if sum(necklace_count(k, m) for m in range(1, n + 1)) <= budget)
        assert verdict.checked_up_to == want
        assert verdict.truncated == (want < max_len)
        if want == 0:
            assert verdict.worst_word is None
            continue
        worst = max(per_length[:want])
        assert len(verdict.worst_word) <= want
        assert verdict.worst_radius == pytest.approx(worst, rel=1e-9)
        assert radius_of[verdict.worst_word.symbols] == pytest.approx(worst, rel=1e-9)
        unstable = [n for n in range(1, want + 1) if per_length[n - 1] >= 1.0]
        assert verdict.stable_up_to == (unstable[0] - 1 if unstable else want)


@pytest.mark.parametrize("k", [2, 3])
def test_necklace_log_radii_match_word_product(k):
    rng = np.random.default_rng(k)
    system = MatrixSystem([random_invertible(rng, 2) for _ in range(k)])
    # The words themselves are checked against brute force in test_switching.
    for symbols, value in necklace_log_radii(system, 8):
        assert value == system.word_product(symbols).log_spectral_radius / len(symbols)


def test_stability_validation(shear06):
    with pytest.raises(InvalidInputError):
        periodic_stability(shear06, 0)
    with pytest.raises(InvalidInputError):
        periodic_stability(shear06, 3, tol=1.5)


def test_normalized_radius_is_rotation_invariant(shear06):
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        syms = tuple(int(s) for s in rng.integers(1, 3, n))
        rot = syms[1:] + syms[:1]
        a = shear06.word_product(syms)
        b = shear06.word_product(rot)
        from chaoslab import spectral_radius

        ra = a.log_scale + math.log(spectral_radius(a.unit))
        rb = b.log_scale + math.log(spectral_radius(b.unit))
        assert ra == pytest.approx(rb, abs=1e-9)


@pytest.mark.parametrize("r, contracting", [
    (1.0 - 1e-8, True),
    (1.0 - 1e-10, False),  # below 1 - 1e-12, not below 1 - DEFAULT_STABILITY_TOL
    (1.0 - 1e-13, False),
])
def test_contraction_rule_agrees_across_analyses(r, contracting):
    system = MatrixSystem([r * np.eye(2), r * np.eye(2)])
    for symbols in [(1,), (1, 2)]:
        verdict = classify_periodic(system, Word(symbols, 2))
        assert (verdict.kind == CONTRACTING) is contracting
    assert periodic_stability(system, 2).stable is contracting
    law = PeriodicLaw(Word((1, 2), 2))
    assert (decay_check(system, law, horizon=8).warning is None) is contracting


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


def normalized_radius(gens, word):
    """rho(S_w)^(1/|w|) by numpy products and eigvals."""
    prod = np.eye(len(gens[0]))
    for sym in word:
        prod = gens[sym - 1] @ prod
    return float(np.abs(np.linalg.eigvals(prod)).max()) ** (1.0 / len(word))


def normalized_radii(gens, max_len):
    """{word: its normalized radius} over every word up to max_len."""
    return {word: normalized_radius(gens, word) for n in range(1, max_len + 1)
            for word in itertools.product(range(1, len(gens) + 1), repeat=n)}


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
            assert bracket.lower >= spectral_radius(g) * (1.0 - 1e-9)
        assert bracket.upper <= max(op_norm(g) for g in gens) * (1.0 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_jsr_bracket_holds_every_short_word(seed):
    """upper is at least every normalized radius up to length 6, and lower is
    its witness's and at least each generator's.  A converged search may
    leave a longer word within the gap unread."""
    rng = np.random.default_rng(seed)
    gens = [random_invertible(rng, 2) for _ in range(2)]
    bracket = jsr_bracket(MatrixSystem(gens), budget=4000, target_gap=0.05)
    assert bracket.lower == pytest.approx(
        normalized_radius(gens, bracket.lower_witness.symbols), rel=1e-9)
    radii = normalized_radii(gens, 6)
    assert bracket.upper * (1.0 + 1e-12) >= max(radii.values())
    assert bracket.lower >= max(radii[(1,)], radii[(2,)]) * (1.0 - 1e-12)


def test_jsr_lower_bound_reaches_each_generator_radius():
    # Best first converged here at lower 1.27409 (witness 2-1^12) before the
    # word 1, of radius 1.31416, popped.
    rng = np.random.default_rng(174635)
    gens = [random_invertible(rng, 2) for _ in range(2)]
    bracket = jsr_bracket(MatrixSystem(gens), budget=4000, target_gap=0.05)
    assert bracket.converged
    assert bracket.lower_witness.symbols == (1,)
    assert bracket.lower == pytest.approx(normalized_radius(gens, (1,)), rel=1e-12)
    assert bracket.lower == pytest.approx(1.3141616017981361, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_jsr_witness_is_no_proper_power(seed):
    # w is a proper power exactly when it occurs inside (ww) minus its ends.
    gens = list(np.random.default_rng(seed).standard_normal((2, 2, 2)))
    system = MatrixSystem(gens)
    bracket = jsr_bracket(system, budget=2000, target_gap=1e-6)
    w = bracket.lower_witness.symbols
    assert not any((w + w)[i:i + len(w)] == w for i in range(1, len(w)))
    radius = math.exp(system.word_product(w).log_spectral_radius / len(w))
    assert bracket.lower == radius
    if seed == 0:
        assert w == (2,)
    # Best first, no word of length <= 2 above the target gap goes unread,
    # as it could in a depth-first dive.
    assert bracket.lower >= max(normalized_radii(gens, 2).values()) * (1.0 - 1e-12)


# Hare, Morris, Sidorov and Theys (Adv. Math. 2011): a pair whose joint
# spectral radius no periodic word attains; its Sturmian words of slope
# 21/13 reach 1.40924722...
HMST = MatrixSystem([np.array([[1.0, 1.0], [0.0, 1.0]]),
                     0.7493265463303675 * np.array([[1.0, 0.0], [1.0, 1.0]])])


def test_jsr_hmst_pair_lower_bound():
    bracket = jsr_bracket(HMST, budget=100, target_gap=1e-9)
    w = bracket.lower_witness.symbols
    assert bracket.lower >= 1.40924722
    assert bracket.lower == pytest.approx(normalized_radius(HMST.generators, w), rel=1e-9)
    assert bracket.lower <= bracket.upper <= 1.4129
    assert bracket.nodes == 100 and not bracket.converged


def test_jsr_memory_is_linear_in_nodes():
    tracemalloc.start()
    try:
        bracket = jsr_bracket(HMST, budget=4000, target_gap=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bracket.nodes == 4000
    assert peak < 4 * 2**20


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
    curve = growth_curve(shear_block_system(0.6, 0.6, scale), 14)
    assert curve.fitted_exponent(even_only=True) == pytest.approx(1.0, abs=0.2)
    assert growth_verdict(curve) == GROWING
    assert curve.argmax_words[-1].symbols == (1, 2) * 7


def test_growth_exact_tie_reports_a_true_maximizer():
    # The bench's shear block: at n = 11 the alternating words starting with
    # 1 and with 2 have equal exact norms, so rounding picks the reported one.
    import mpmath

    zero = np.zeros((2, 2))
    shear = shear_pair(0.6, 0.6).generators
    rho = 0.6 * (1.0 + math.sqrt(5.0)) / 2.0
    gens = [np.block([[g, g], [zero, g]]) for g in np.array(shear) / rho]
    tied = ((1, 2) * 5 + (1,), (2, 1) * 5 + (2,))
    reported = growth_curve(MatrixSystem(gens), 12).argmax_words[10].symbols
    assert reported in tied

    def exact_norm(word):
        with mpmath.workdps(50):
            p = mpmath.eye(4)
            for sym in word:
                p = mpmath.matrix(gens[sym - 1].tolist()) * p
            return max(mpmath.svd_r(p, compute_uv=False))

    with mpmath.workdps(50):
        best = max(exact_norm(w) for w in tied)
        assert abs(exact_norm(reported) - best) <= 1e-20 * best


def test_growth_curve_is_the_brute_force_maximum():
    # The bench's normalized shear pair.  Every product's norm is 1 up to
    # rounding, and a bound that rounded down pruned the true n = 13 maximum.
    g = 0.6180339887498949
    system = MatrixSystem([[[g, g], [0.0, g]], [[g, 0.0], [g, g]]])
    best = {}
    for symbols, prod in word_tree(system.generators, 16):
        v = prod.log_op_norm
        if v > best.get(len(symbols), (-math.inf,))[0]:
            best[len(symbols)] = (v, symbols)
    curve = growth_curve(system, 16)
    assert curve.argmax_words[12].text() == "2-1-2-1-2-1-2-1-2-1-2-1-2"
    assert curve.log_max_norms.tolist() == [best[n][0] for n in range(1, 17)]
    assert [w.symbols for w in curve.argmax_words] == [best[n][1] for n in range(1, 17)]


@pytest.mark.parametrize("cap", [1, 7])
def test_chunk_cap_changes_no_result(monkeypatch, cap):
    block = shear_block_system(0.6, 0.6, 1.0 / RHO_SHEAR)
    want = (list(necklace_log_radii(_random_k3_d4(), 6)), growth_curve(block, 9))
    monkeypatch.setattr(linalg, "_CHUNK_ROWS", cap)
    got = (list(necklace_log_radii(_random_k3_d4(), 6)), growth_curve(block, 9))
    assert got[0] == want[0]
    assert got[1].log_max_norms.tobytes() == want[1].log_max_norms.tobytes()
    assert got[1].argmax_words == want[1].argmax_words


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
    block = growth_curve(shear_block_system(0.6, 0.6, scale), 14)
    assert block.fitted_exponent(even_only=True) <= polynomial_growth_exponent(4) + 0.25


# ---------------------------------------------------------------------------
# constructions


def test_shear_pair_entries():
    system = shear_pair(0.6, 1.05)
    assert np.allclose(system.generator(1), [[0.6, 0.6], [0.0, 0.6]])
    assert np.allclose(system.generator(2), [[1.05, 0.0], [1.05, 1.05]])
    with pytest.raises(InvalidInputError):
        shear_pair(0.0, 1.0)


def test_block_product_identity():
    """Products keep the shape [[P, n P], [0, P]] exactly."""
    rng = np.random.default_rng(57)
    scale = 1.0 / RHO_SHEAR
    blk = shear_block_system(0.6, 0.6, scale)
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
    report = irreducibility(shear_block_system(0.6, 0.6))
    assert report.verdict == "reducible"
    assert report.algebra_dim == 8


def test_irreducibility_distinct_diagonal():
    system = MatrixSystem([np.diag([0.5, 2.0]), np.diag([2.0, 0.5])])
    report = irreducibility(system)
    assert report.verdict == "reducible"
    assert report.algebra_dim == 2


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
@pytest.mark.parametrize("other, verdict, algebra_dim", [
    (np.array([[1.0, 0.0], [1.0, 1.0]]), "irreducible", 4),
    (np.diag([1.0, 2.0]), "reducible", 3),
], ids=["lower-shear", "diagonal"])
def test_irreducibility_does_not_depend_on_generator_scale(scale, other, verdict, algebra_dim):
    # Entries past about 1e154 or below 1e-154 overflow or underflow the
    # squares in a Frobenius norm; the algebra is the same at every scale.
    system = MatrixSystem([scale * np.array([[1.0, 1.0], [0.0, 1.0]]), other])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = irreducibility(system)
    assert (report.verdict, report.algebra_dim) == (verdict, algebra_dim)


def test_records_holding_arrays_compare_by_identity(single_shear):
    # Two runs give equal-valued records; comparing them must not ask an
    # array for its truth value, and each record hashes.
    def records():
        probe = product_unbounded_probe(single_shear, n_max=6)
        return (LogScaledMatrix.identity(2),
                simulate(single_shear, PeriodicLaw(Word((1,), 1)), [1.0, 0.0], 5),
                growth_curve(single_shear, n_max=4),
                decay_check(single_shear, PeriodicLaw(Word((1,), 1)), 8),
                irreducibility(single_shear), probe, probe.restrictions[0])

    for first, second in zip(records(), records()):
        assert first != second and first == first
        assert len({first, second}) == 2


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
    report = product_unbounded_probe(shear_block_system(0.6, 0.6, scale), n_max=12)
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


def _lyapunov_by_walk(system, samples, horizon, seed):
    """The per-sample loop: one walk per sample, draws in sample order."""
    rng = np.random.default_rng(seed)
    rates = np.empty(samples)
    for i in range(samples):
        draws = rng.integers(1, system.alphabet_size + 1, size=horizon)
        *_, prod = walk(system.generators, draws)
        rates[i] = prod.log_op_norm / horizon
    stderr = float(np.std(rates, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(np.mean(rates)), stderr


@pytest.mark.parametrize("samples", [1, 2, 40])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lyapunov_equals_the_per_sample_walk(shear06, samples, seed):
    rng = np.random.default_rng(seed)
    systems = (shear06, shear_block_system(0.6, 0.6),
               MatrixSystem([1e200 * random_invertible(rng, 3) for _ in range(3)]))
    for system in systems:
        est = lyapunov_mc(system, samples=samples, horizon=60, seed=seed)
        assert (est.value, est.stderr) == _lyapunov_by_walk(system, samples, 60, seed)


@pytest.mark.parametrize("block, samples, horizon", [(250, 5, 100), (50, 3, 100)])
def test_lyapunov_blocks_leave_the_bits_unchanged(shear06, monkeypatch, block, samples, horizon):
    # Two rows per block with a remainder, then a horizon longer than a block.
    monkeypatch.setattr("chaoslab.stability._MC_BLOCK_SYMBOLS", block)
    est = lyapunov_mc(shear06, samples=samples, horizon=horizon, seed=9)
    assert (est.value, est.stderr) == _lyapunov_by_walk(shear06, samples, horizon, 9)


@settings(max_examples=30, deadline=None)
@given(gen_seed=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1),
       dim=st.integers(1, 4), k=st.integers(1, 3),
       samples=st.integers(1, 12), horizon=st.integers(1, 60))
def test_lyapunov_matches_plain_numpy_replay(gen_seed, seed, dim, k, samples, horizon):
    # The benchmark oracle's replay: the same draws, normalized by the plain
    # largest |entry| at every step, the norm read by numpy.
    gens = np.stack([random_invertible(np.random.default_rng(gen_seed + i), dim)
                     for i in range(k)])
    est = lyapunov_mc(MatrixSystem(list(gens)), samples=samples, horizon=horizon, seed=seed)
    rng = np.random.default_rng(seed)
    draws = np.stack([rng.integers(1, k + 1, size=horizon) for _ in range(samples)])
    p = np.broadcast_to(np.eye(dim), (samples, dim, dim)).copy()
    logs = np.zeros(samples)
    for t in range(horizon):
        p = gens[draws[:, t] - 1] @ p
        f = np.abs(p).max(axis=(1, 2))
        p /= f[:, None, None]
        logs += np.log(f)
    rates = (logs + np.log(np.linalg.norm(p, 2, axis=(1, 2)))) / horizon
    stderr = float(np.std(rates, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    assert est.value == pytest.approx(float(np.mean(rates)), rel=1e-9, abs=1e-9)
    assert est.stderr == pytest.approx(stderr, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", [-1, 2.5, True, None, "3"])
def test_lyapunov_seed_is_validated(diag_pair, seed):
    with pytest.raises(InvalidInputError, match="seed must be a nonnegative integer"):
        lyapunov_mc(diag_pair, samples=2, horizon=5, seed=seed)


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
