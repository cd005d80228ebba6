import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    CONTRACTING,
    EXPANDING_OR_NEUTRAL,
    BudgetExceededError,
    InvalidInputError,
    MatrixSystem,
    Refusal,
    Word,
    certificate_law,
    classify_periodic,
    construct_chaotic_law,
    decay_check,
    find_witness,
    law_metric,
    recheck_certificate,
    shear_pair,
    simulate,
    verify_witness,
)
from chaoslab import linalg

LN2 = math.log(2.0)


def _diag_witness(diag_pair):
    return verify_witness(diag_pair, Word((1,), 2), Word((2,), 2))


# ---------------------------------------------------------------------------
# system validation


def test_system_rejects_singular_generator_by_label():
    with pytest.raises(InvalidInputError) as err:
        MatrixSystem([np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])])
    assert "2" in str(err.value)


def test_system_rejects_mixed_dimensions_and_empty():
    with pytest.raises(InvalidInputError):
        MatrixSystem([np.eye(2), np.eye(3)])
    with pytest.raises(InvalidInputError):
        MatrixSystem([])


def test_system_accepts_single_generator():
    system = MatrixSystem([np.array([[1.0, 1.0], [0.0, 1.0]])])
    assert system.alphabet_size == 1
    assert system.dim == 2


def test_system_generators_are_read_only():
    system = MatrixSystem([np.eye(2)])
    with pytest.raises(ValueError):
        system.generator(1)[0, 0] = 7.0


@pytest.mark.parametrize("label", [True, 1.5, "1", 0, 3])
def test_system_generator_rejects_bad_labels(label):
    system = MatrixSystem([np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(InvalidInputError):
        system.generator(label)


def test_system_generator_accepts_integer_valued_labels():
    system = MatrixSystem([np.eye(2), 2.0 * np.eye(2)])
    assert system.generator(np.int64(2))[0, 0] == 2.0
    assert system.generator(2.0)[0, 0] == 2.0


# ---------------------------------------------------------------------------
# witness verification


def test_verify_witness_diag_pair_exact(diag_pair):
    pair = _diag_witness(diag_pair)
    assert pair.contracting_norm == pytest.approx(0.5, abs=1e-12)
    assert pair.expanding_conorm == pytest.approx(2.0, abs=1e-12)


def test_verify_witness_shear_half_two():
    system = shear_pair(0.5, 2.0)
    pair = verify_witness(system, Word((1,), 2), Word((2,), 2))
    assert pair.contracting_norm == pytest.approx(0.8090169943749475, abs=1e-12)
    assert pair.expanding_conorm == pytest.approx(1.2360679774997896, abs=1e-12)


def test_verify_witness_refusal_names_failing_side():
    system = shear_pair(0.9, 1.05)
    out = verify_witness(system, Word((1,), 2), Word((2,), 2))
    assert isinstance(out, Refusal)
    sides = {f.side for f in out.failures}
    assert sides == {"contracting", "expanding"}
    # the lower shear scaled by 1.05 has co-norm 1.05 / golden ratio
    expanding = [f for f in out.failures if f.side == "expanding"][0]
    assert expanding.value == pytest.approx(0.6489356881873896, abs=1e-12)
    assert "co_norm" in out.message


def test_verify_witness_is_strict_at_the_boundary():
    system = MatrixSystem([np.diag([1.0, 1.0]), np.diag([1.0, 1.0])])
    out = verify_witness(system, Word((1,), 2), Word((2,), 2))
    assert isinstance(out, Refusal)
    assert len(out.failures) == 2


def test_verify_witness_rejects_empty_or_foreign_words(diag_pair):
    with pytest.raises(InvalidInputError):
        verify_witness(diag_pair, Word((), 2), Word((2,), 2))
    with pytest.raises(InvalidInputError):
        verify_witness(diag_pair, Word((1,), 3), Word((2,), 3))


# ---------------------------------------------------------------------------
# witness search


def test_find_witness_diag_pair(diag_pair):
    found = find_witness(diag_pair, max_len=3)
    assert found.witness is not None
    assert found.witness.contracting.symbols == (1,)
    assert found.witness.expanding.symbols == (2,)
    assert found.witness.contracting_norm == pytest.approx(0.5, abs=1e-12)
    assert found.witness.expanding_conorm == pytest.approx(2.0, abs=1e-12)


def test_witness_norms_are_plain_floats(diag_pair):
    pair = find_witness(diag_pair, max_len=4).witness
    assert type(pair.contracting_norm) is float
    assert type(pair.expanding_conorm) is float


def test_find_witness_needs_length_eleven():
    """The 0.8/1.3 shear pair has no short witnesses: the first contracting
    word is the eleventh power of the first letter and the first expanding
    word the eighth power of the second."""
    system = shear_pair(0.8, 1.3)
    found = find_witness(system, max_len=12)
    assert found.witness is not None
    assert found.witness.contracting.symbols == (1,) * 11
    assert found.witness.expanding.symbols == (2,) * 8


def test_find_witness_partial_sides_reported():
    system = shear_pair(0.8, 1.3)
    found = find_witness(system, max_len=9)
    assert found.witness is None
    assert found.contracting is None
    assert found.expanding is not None
    assert found.expanding[0].symbols == (2,) * 8


def test_find_witness_budget_exhaustion():
    system = shear_pair(0.8, 1.3)
    with pytest.raises(BudgetExceededError) as err:
        find_witness(system, max_len=12, budget=100)
    assert err.value.spent > err.value.budget


def test_find_witness_budget_trips_on_the_next_product():
    system = MatrixSystem([0.99 * np.eye(2), 0.98 * np.eye(2)])
    with pytest.raises(BudgetExceededError) as err:
        find_witness(system, max_len=10, budget=100)
    assert err.value.spent == 101
    assert err.value.budget == 100


@pytest.mark.parametrize("k, max_len", [(2, 5), (3, 4)])
def test_find_witness_counts_every_prefix_product(k, max_len):
    # No word expands, so the scan walks every length's tree in full.
    system = MatrixSystem([(0.99 - 0.01 * i) * np.eye(2) for i in range(k)])
    search = find_witness(system, max_len=max_len)
    assert search.witness is None
    assert search.nodes == sum((k ** (n + 1) - k) // (k - 1) for n in range(1, max_len + 1))


@pytest.mark.parametrize("dim", [2, 3])
def test_find_witness_scans_products_past_float_range(dim):
    # Products reach 1e600, and no word contracts, so every length is scanned.
    system = MatrixSystem([1e200 * np.eye(dim), np.eye(dim)])
    search = find_witness(system, max_len=3)
    assert search.witness is None
    assert search.contracting is None
    assert search.expanding[0].symbols == (1,)
    assert search.expanding[1] == pytest.approx(1e200, rel=1e-12)
    assert search.nodes == 22


@pytest.mark.parametrize("budget", [None, 2.5, True, -1])
def test_find_witness_budget_is_validated(budget):
    with pytest.raises(InvalidInputError):
        find_witness(shear_pair(0.8, 1.3), max_len=3, budget=budget)


def test_find_witness_reads_norms_once_per_full_length_word(monkeypatch):
    # No word of the 0.6 shear pair expands, so every length is scanned in
    # full: 2 + 4 + ... + 64 words, and prefixes shorter than the length
    # being scanned are multiplied but never read.
    system = shear_pair(0.6, 0.6)
    calls = []
    inner = linalg._singular_extremes

    def counted(a):
        calls.append(a.shape)
        return inner(a)

    monkeypatch.setattr(linalg, "_singular_extremes", counted)
    search = find_witness(system, max_len=6)
    assert search.witness is None and search.contracting is not None
    assert len(calls) == 126


@st.composite
def witness_systems(draw):
    k, dim = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Near-orthogonal generators, the first scaled below 1 and the second
    # above, so nearly every draw has a witness pair among short words.
    gens = []
    for low, high in ((0.4, 0.9), (1.1, 2.5), (0.5, 2.0))[:k]:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        scale = draw(st.floats(low, high))
        gens.append(scale * (q + 0.1 * rng.standard_normal((dim, dim))))
    return MatrixSystem(gens)


@settings(max_examples=120, deadline=None)
@given(system=witness_systems(), tol=st.sampled_from([0.0, 1e-12, 0.1]))
def test_every_found_witness_passes_verify_witness_with_the_same_norms(system, tol):
    pair = find_witness(system, max_len=3, tol=tol).witness
    if pair is None:
        return
    again = verify_witness(system, pair.contracting, pair.expanding, tol=tol)
    assert again == pair


# ---------------------------------------------------------------------------
# law construction


def test_construct_schedule_diag_kmax2(diag_pair):
    cert, law = construct_chaotic_law(diag_pair, _diag_witness(diag_pair), Word((), 2), 2)
    assert cert.schedule == ((1, 2), (3, 4))
    assert cert.crossings == ((1, 1, 3), (2, 6, 10))
    assert law.sequence(10) == [1, 2, 2, 1, 1, 1, 2, 2, 2, 2]


def test_construct_schedule_diag_kmax5(diag_pair):
    cert, _ = construct_chaotic_law(diag_pair, _diag_witness(diag_pair), Word((), 2), 5)
    assert cert.schedule == ((1, 2), (3, 4), (4, 4), (5, 6), (6, 6))
    assert cert.crossings == ((1, 1, 3), (2, 6, 10), (3, 14, 18), (4, 23, 29), (5, 35, 41))
    # the scalar system saturates l_k = L_k at stages 3 and 5; recorded, not fatal
    assert cert.ordering_violations == (3, 5)
    # block-end norms in log2: at stage k the product is 2^-ceil(log2 k)-ish
    log2s = [(a / LN2, b / LN2) for a, b in cert.block_log_norms]
    assert log2s[0] == (pytest.approx(-1.0), pytest.approx(1.0))
    assert log2s[4] == (pytest.approx(-3.0), pytest.approx(3.0))


def test_construct_respects_prefix(diag_pair):
    prefix = Word((2, 2, 1), 2)
    cert, law = construct_chaotic_law(diag_pair, _diag_witness(diag_pair), prefix, 2)
    assert law.sequence(3) == [2, 2, 1]
    assert cert.prefix.symbols == (2, 2, 1)
    assert recheck_certificate(diag_pair, cert)


def test_construct_kmax_zero(diag_pair):
    cert, law = construct_chaotic_law(diag_pair, _diag_witness(diag_pair), Word((1, 2), 2), 0)
    assert cert.schedule == ()
    assert cert.final_time == 2
    assert law.sequence(4) == [1, 2, 2, 2]


def test_construct_rejects_stale_witness(diag_pair):
    other = shear_pair(0.9, 1.05)
    good = _diag_witness(diag_pair)
    with pytest.raises(InvalidInputError):
        construct_chaotic_law(other, good, Word((), 2), 1)


def test_construct_budget(diag_pair):
    with pytest.raises(BudgetExceededError):
        construct_chaotic_law(diag_pair, _diag_witness(diag_pair), Word((), 2), 50, budget=10)


def test_construct_multiletter_witness():
    """Witness words longer than one symbol thread through whole copies."""
    system = shear_pair(0.9, 1.05)
    i_word = Word((1,) * 34, 2)
    j_word = Word((2,) * 93, 2)
    pair = verify_witness(system, i_word, j_word)
    assert not isinstance(pair, Refusal)
    cert, law = construct_chaotic_law(system, pair, Word((), 2), 2)
    assert recheck_certificate(system, cert)
    # every block is a whole number of witness copies
    l1, big1 = cert.schedule[0]
    assert cert.crossings[0][1] == l1 * 34
    assert cert.crossings[0][2] == l1 * 34 + big1 * 93


def test_certificate_law_round_trip(diag_pair):
    cert, law = construct_chaotic_law(diag_pair, _diag_witness(diag_pair), Word((2,), 2), 3)
    rebuilt = certificate_law(cert)
    assert rebuilt.sequence(200) == law.sequence(200)
    d = cert.to_dict()
    assert d["schedule"] == [[1, 2], [3, 4], [4, 4]] or d["schedule"][0][0] >= 1
    assert d["margin"] == cert.margin


def test_recheck_detects_tampering(diag_pair):
    cert, _ = construct_chaotic_law(diag_pair, _diag_witness(diag_pair), Word((), 2), 2)
    bad = type(cert)(
        prefix=cert.prefix,
        i_word=cert.i_word,
        j_word=cert.j_word,
        schedule=cert.schedule,
        crossings=((1, 1, 2), cert.crossings[1]),  # wrong first expansion time
        block_log_norms=cert.block_log_norms,
        ordering_violations=cert.ordering_violations,
        margin=cert.margin,
    )
    assert not recheck_certificate(diag_pair, bad)


def test_recheck_rejects_foreign_alphabet(diag_pair):
    three = MatrixSystem([np.eye(2), np.diag([0.5, 0.5]), np.diag([2.0, 2.0])])
    pair = verify_witness(three, Word((2,), 3), Word((3,), 3))
    cert, _ = construct_chaotic_law(three, pair, Word((), 3), 2)
    with pytest.raises(InvalidInputError, match="^certificate alphabet does not match"):
        recheck_certificate(diag_pair, cert)
    # every analysis refuses a word or law over another alphabet
    foreign, law = Word((1,), 3), certificate_law(cert)
    calls = [
        ("contracting word", lambda: verify_witness(diag_pair, foreign, Word((2,), 2))),
        ("expanding word", lambda: verify_witness(diag_pair, Word((1,), 2), foreign)),
        ("target prefix", lambda: construct_chaotic_law(diag_pair, _diag_witness(diag_pair),
                                                        foreign, 1)),
        ("law", lambda: simulate(diag_pair, law, [1.0, 0.0], 5)),
        ("law", lambda: decay_check(diag_pair, law, 8)),
        ("word", lambda: classify_periodic(diag_pair, foreign)),
    ]
    for what, call in calls:
        with pytest.raises(InvalidInputError, match=f"^{what} alphabet does not match the system$"):
            call()


def test_construct_density(diag_pair):
    """The constructed law agrees with any target on its full prefix, so the
    sequence metric to the target is below 2^-N."""
    rng = np.random.default_rng(17)
    pair = _diag_witness(diag_pair)
    for n_prefix in (4, 8, 16):
        for _ in range(10):
            target = Word(tuple(int(s) for s in rng.integers(1, 3, n_prefix)), 2)
            from chaoslab import PeriodicLaw

            target_law = PeriodicLaw(target)
            _, law = construct_chaotic_law(diag_pair, pair, target, 2)
            assert law.sequence(n_prefix) == list(target.symbols)
            assert law_metric(target_law, law) < 2.0 ** (-n_prefix)


# The witness scan at tol 0 finds a contraction by 5e-14 per step; the
# construction must accept what the scan returned.
NEAR_NEUTRAL = MatrixSystem([(1.0 - 5e-14) * np.eye(2), 2.0 * np.eye(2)])
BAD_TOLS = [-0.5, math.nan, 1.0, 1.5, math.inf, True, "0.1", None]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_witness_tol_is_validated(diag_pair, tol):
    with pytest.raises(InvalidInputError, match=r"tol must lie in \[0, 1\)"):
        find_witness(diag_pair, max_len=2, tol=tol)
    with pytest.raises(InvalidInputError, match=r"tol must lie in \[0, 1\)"):
        verify_witness(diag_pair, Word((1,), 2), Word((2,), 2), tol=tol)


def test_construct_accepts_a_witness_found_at_tol_zero():
    pair = find_witness(NEAR_NEUTRAL, max_len=1, tol=0).witness
    assert (pair.contracting.symbols, pair.expanding.symbols) == ((1,), (2,))
    assert isinstance(verify_witness(NEAR_NEUTRAL, pair.contracting, pair.expanding), Refusal)
    cert, _ = construct_chaotic_law(NEAR_NEUTRAL, pair, Word((), 2), 1)
    assert cert.schedule[0][0] > 1000
    assert recheck_certificate(NEAR_NEUTRAL, cert)


@pytest.mark.parametrize("margin", [-2.0, 0.0, math.nan, math.inf, True, "1e-9"])
def test_margin_must_be_positive_and_finite(diag_pair, margin):
    pair = _diag_witness(diag_pair)
    with pytest.raises(InvalidInputError, match="margin must be a positive finite number"):
        construct_chaotic_law(diag_pair, pair, Word((), 2), 3, margin=margin)


@pytest.mark.parametrize("margin", [-2.0, 0.0, math.nan, math.inf])
def test_recheck_refuses_a_margin_that_is_not_positive_and_finite(diag_pair, margin):
    cert, _ = construct_chaotic_law(diag_pair, _diag_witness(diag_pair), Word((), 2), 3)
    assert recheck_certificate(diag_pair, cert)
    assert not recheck_certificate(diag_pair, dataclasses.replace(cert, margin=margin))


# ---------------------------------------------------------------------------
# simulation


def test_simulate_halving_orbit(diag_pair):
    from chaoslab import PeriodicLaw

    law = PeriodicLaw(Word((1,), 2))
    traj = simulate(diag_pair, law, np.array([1.0, 0.0]), 50)
    # each step multiplies the magnitude by exactly 1/2
    for n in range(50):
        assert traj.log_magnitudes[n] == pytest.approx(-(n + 1) * LN2, abs=1e-9)
    norms = np.linalg.norm(traj.units, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_simulate_includes_initial_magnitude(diag_pair):
    from chaoslab import PeriodicLaw

    law = PeriodicLaw(Word((2,), 2))
    traj = simulate(diag_pair, law, np.array([3.0, 4.0]), 3)
    assert traj.log_magnitudes[0] == pytest.approx(math.log(10.0), abs=1e-12)


def test_simulate_zero_state_flagged(diag_pair):
    from chaoslab import PeriodicLaw

    traj = simulate(diag_pair, PeriodicLaw(Word((1,), 2)), np.zeros(2), 5)
    assert traj.zero_input
    assert np.all(np.isneginf(traj.log_magnitudes))


def test_simulate_validation(diag_pair):
    from chaoslab import PeriodicLaw

    law = PeriodicLaw(Word((1,), 2))
    with pytest.raises(InvalidInputError):
        simulate(diag_pair, law, np.array([1.0, 2.0, 3.0]), 5)
    with pytest.raises(InvalidInputError):
        simulate(diag_pair, law, np.array([np.nan, 0.0]), 5)
    with pytest.raises(InvalidInputError):
        simulate(diag_pair, PeriodicLaw(Word((1,), 3)), np.ones(2), 5)
    with pytest.raises(BudgetExceededError):
        simulate(diag_pair, law, np.ones(2), 10**8)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_simulate_survives_norm_overflow_and_underflow(scale):
    from chaoslab import doubling_law

    system = MatrixSystem([np.diag([scale, scale]), np.eye(2)])
    with np.errstate(over="ignore", under="ignore"):
        traj = simulate(system, doubling_law(), np.array([3.0, 4.0]), 300)
    # the doubling law's first 300 symbols hold 170 ones
    assert traj.log_magnitudes[-1] / math.log(10.0) == pytest.approx(
        math.log10(5.0) + 170 * math.log10(scale), abs=1e-9)
    assert np.allclose(np.linalg.norm(traj.units, axis=1), 1.0)


def _simulate_oracle(gens, symbols, x):
    """The reference per-step loop: np.linalg.norm, then u / step, with the
    peak rescale when the squares under the norm leave float range.
    Returns (units, log_magnitudes, number of rescaled steps)."""
    units = np.zeros((len(symbols), len(x)))
    logs = np.full(len(symbols), -math.inf)
    mag = float(np.linalg.norm(x))
    if mag == 0.0:
        return units, logs, 0
    u, log_mag, rescaled = x / mag, math.log(mag), 0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for idx, sym in enumerate(symbols):
            u = gens[sym - 1] @ u
            step = float(np.linalg.norm(u))
            if not 0.0 < step < math.inf:
                peak = float(np.max(np.abs(u)))
                u = u / peak
                log_mag += math.log(peak)
                step = float(np.linalg.norm(u))
                rescaled += 1
            u = u / step
            log_mag += math.log(step)
            units[idx] = u
            logs[idx] = log_mag
    return units, logs, rescaled


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_simulate_is_the_reference_loop_bit_for_bit(dim, scale):
    from chaoslab import ExplicitLaw
    from conftest import random_invertible

    rng = np.random.default_rng(dim)
    system = MatrixSystem([scale * random_invertible(rng, dim), random_invertible(rng, dim)])
    law = ExplicitLaw(Word(tuple(rng.integers(1, 3, size=400).tolist()), 2))
    for x0 in (rng.standard_normal(dim), np.zeros(dim)):
        with np.errstate(over="ignore", under="ignore"):
            traj = simulate(system, law, x0, 400)
        units, logs, rescaled = _simulate_oracle(system.generators, law.sequence(400), x0)
        assert traj.units.tobytes() == units.tobytes()
        assert np.array_equal(traj.log_magnitudes, logs)
        # Only the scaled generator sends the squares out of float range.
        assert (rescaled > 0) == (scale != 1.0 and x0.any())


def test_simulated_crossings_transfer_to_difference_orbits():
    """At a certified crossing time the matrix norms bound every pair of
    orbits, so differences dip below 1/k and rise above k as scheduled."""
    system = shear_pair(0.5, 2.0)
    pair = verify_witness(system, Word((1,), 2), Word((2,), 2))
    cert, law = construct_chaotic_law(system, pair, Word((), 2), 2)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(2)
        y = x + _unit(rng.standard_normal(2))
        horizon = cert.final_time
        tx = simulate(system, law, x - y, horizon)  # difference orbit
        for k, t_below, t_above in cert.crossings:
            assert tx.log_magnitudes[t_below - 1] <= -math.log(k) + 1e-9
            assert tx.log_magnitudes[t_above - 1] >= math.log(k) - 1e-9


def _unit(v):
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# periodic classification


def test_classify_periodic_diag(diag_pair):
    down = classify_periodic(diag_pair, Word((1,), 2))
    up = classify_periodic(diag_pair, Word((2,), 2))
    assert down.kind == CONTRACTING
    assert down.radius == pytest.approx(0.5, abs=1e-12)
    assert up.kind == EXPANDING_OR_NEUTRAL
    assert up.radius == pytest.approx(2.0, abs=1e-12)


def test_classify_periodic_neutral_word(diag_pair):
    # alternating word has product radius exactly 1: not contracting
    out = classify_periodic(diag_pair, Word((1, 2), 2))
    assert out.radius == pytest.approx(1.0, abs=1e-12)
    assert out.kind == EXPANDING_OR_NEUTRAL


def test_classify_periodic_shear(shear06):
    out = classify_periodic(shear06, Word((1, 2), 2))
    assert out.kind == CONTRACTING
    assert out.radius == pytest.approx(0.9424922359499622, abs=1e-12)
