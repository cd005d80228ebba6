import math

import numpy as np
import pytest

from chaoslab import (
    BudgetExceededError,
    InvalidInputError,
    MatrixSystem,
    Refusal,
    Word,
    certificate_law,
    chaos_scan,
    classify_periodic,
    construct_chaotic_law,
    find_witness,
    law_metric,
    recheck_certificate,
    shear_pair,
    simulate,
    verify_witness,
)
from chaoslab.chaos import CONTRACTING, EXPANDING_OR_NEUTRAL

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
    with pytest.raises(InvalidInputError):
        recheck_certificate(diag_pair, cert)


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
# crossing scans and periodic classification


def test_chaos_scan_matches_certificate(diag_pair):
    cert, law = construct_chaotic_law(diag_pair, _diag_witness(diag_pair), Word((), 2), 2)
    table = chaos_scan(diag_pair, law, 2, 50)
    assert table.all_reached
    got = [(e.k, e.time_below, e.time_above) for e in table.entries]
    assert got == [(1, 1, 3), (2, 6, 10)]


def test_chaos_scan_unreached_is_none(diag_pair):
    from chaoslab import PeriodicLaw

    law = PeriodicLaw(Word((1,), 2))  # only contracts, never expands
    table = chaos_scan(diag_pair, law, 2, 30)
    assert not table.all_reached
    assert table.entry(1).time_below == 1
    assert table.entry(1).time_above is None


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
