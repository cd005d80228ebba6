import json
import math
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    BlockLaw,
    ConstructedLaw,
    ExplicitLaw,
    InvalidInputError,
    BudgetExceededError,
    PeriodicLaw,
    Word,
    doubling_law,
    enumerate_necklaces,
    enumerate_words,
    law_from_spec,
    law_metric,
    law_to_spec,
    run_profile,
)

# Necklace counts for a binary alphabet, lengths 1..10.
BINARY_NECKLACES = (2, 3, 4, 6, 8, 14, 20, 36, 60, 108)


# ---------------------------------------------------------------------------
# words


def test_word_basics():
    w = Word((1, 2, 2), 2)
    assert len(w) == 3
    assert list(w) == [1, 2, 2]
    assert w[0] == 1
    assert w.text() == "1-2-2"
    assert w.times(2).symbols == (1, 2, 2, 1, 2, 2)
    assert (w + Word((1,), 2)).symbols == (1, 2, 2, 1)


def test_word_validation():
    with pytest.raises(InvalidInputError):
        Word((0,), 2)
    with pytest.raises(InvalidInputError):
        Word((3,), 2)
    with pytest.raises(InvalidInputError):
        Word((1,), 0)
    with pytest.raises(InvalidInputError):
        Word((1,), 2) + Word((1,), 3)


# ---------------------------------------------------------------------------
# law classes


def test_periodic_law_symbols_and_shift():
    law = PeriodicLaw(Word((1, 2, 2), 2))
    assert law.sequence(6) == [1, 2, 2, 1, 2, 2]
    assert law.symbol(7) == 1
    shifted = law.shift(1)
    assert shifted.sequence(6) == [2, 2, 1, 2, 2, 1]
    # shifting by the period gives the same sequence back
    assert law.shift(3).sequence(9) == law.sequence(9)


def test_periodic_law_rejects_empty_word():
    with pytest.raises(InvalidInputError):
        PeriodicLaw(Word((), 2))


def test_explicit_law_prefix_and_fallback():
    law = ExplicitLaw(Word((1, 2, 1), 2))
    # default fallback repeats the last prefix symbol
    assert law.sequence(6) == [1, 2, 1, 1, 1, 1]
    law2 = ExplicitLaw(Word((1, 2), 2), fallback=2)
    assert law2.sequence(5) == [1, 2, 2, 2, 2]
    law3 = ExplicitLaw(Word((), 2), fallback=1)
    assert law3.sequence(3) == [1, 1, 1]
    with pytest.raises(InvalidInputError):
        ExplicitLaw(Word((), 2))


def test_symbol_index_validation():
    law = PeriodicLaw(Word((1,), 1))
    with pytest.raises(InvalidInputError):
        law.symbol(0)
    with pytest.raises(InvalidInputError):
        law.symbol(-3)
    with pytest.raises(InvalidInputError):
        law.symbol(1.5)


def test_shift_composition_pointwise():
    law = doubling_law()
    a = law.shift(2).shift(3)
    b = law.shift(5)
    assert a.sequence(40) == b.sequence(40)
    assert law.shift(0) is law
    for n in range(1, 30):
        assert law.shift(4).symbol(n) == law.symbol(n + 4)


def test_block_law_sequence_and_tail():
    law = BlockLaw([(1, 3), (2, 2)], alphabet_size=2)
    # after the listed blocks the final symbol repeats forever
    assert law.sequence(8) == [1, 1, 1, 2, 2, 2, 2, 2]
    assert law.symbol(10**6) == 2


def test_block_law_validation():
    with pytest.raises(InvalidInputError):
        BlockLaw([], alphabet_size=2)  # no blocks and no rule
    with pytest.raises(InvalidInputError):
        BlockLaw([(1, 0)], alphabet_size=2)
    with pytest.raises(InvalidInputError):
        BlockLaw([(3, 2)], alphabet_size=2)


def test_doubling_law_prefix_and_boundaries():
    law = doubling_law()
    assert law.sequence(14) == [1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1]
    # block m covers 2^m - 2 + 1 .. 2^(m+1) - 2
    for m, end in ((1, 2), (2, 6), (3, 14), (4, 30), (5, 62), (6, 126)):
        sym = 1 if m % 2 == 1 else 2
        assert law.symbol(end) == sym
        assert law.symbol(end + 1) != sym


def test_doubling_law_random_access_is_lazy():
    law = doubling_law()
    # block index around 40 for n = 10^12; must answer without iterating
    assert law.symbol(10**12) in (1, 2)


def test_constructed_law_layout():
    law = ConstructedLaw(
        Word((2,), 2), Word((1,), 2), Word((2,), 2), [(1, 2), (3, 4)]
    )
    want = [2] + [1] + [2, 2] + [1, 1, 1] + [2, 2, 2, 2]
    assert law.sequence(len(want)) == want
    # the tail repeats the final super-block
    tail = [1, 1, 1] + [2, 2, 2, 2]
    assert law.sequence(len(want) + 14)[len(want):] == (tail * 2)
    assert law.alphabet_size == 2


def test_constructed_law_validation():
    with pytest.raises(InvalidInputError):
        ConstructedLaw(Word((), 2), Word((), 2), Word((2,), 2), [(1, 1)])
    with pytest.raises(InvalidInputError):
        ConstructedLaw(Word((), 2), Word((1,), 2), Word((2,), 2), [])
    with pytest.raises(InvalidInputError):
        ConstructedLaw(Word((), 2), Word((1,), 2), Word((2,), 2), [(0, 1)])


words = st.lists(st.integers(1, 3), min_size=1, max_size=4)


@st.composite
def laws(draw):
    """Every law type: periodic, explicit, blocks, doubling and constructed."""
    kind = draw(st.sampled_from(["periodic", "explicit", "blocks", "doubling", "constructed"]))
    if kind == "periodic":
        return PeriodicLaw(Word(tuple(draw(words)), 3))
    if kind == "explicit":
        prefix = draw(st.lists(st.integers(1, 3), max_size=6))
        return ExplicitLaw(Word(tuple(prefix), 3), fallback=draw(st.integers(1, 3)))
    if kind == "blocks":
        blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 5)),
                               min_size=1, max_size=5))
        return BlockLaw(blocks, alphabet_size=3)
    if kind == "doubling":
        return doubling_law()
    schedule = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                             min_size=1, max_size=4))
    prefix = draw(st.lists(st.integers(1, 3), max_size=3))
    return ConstructedLaw(Word(tuple(prefix), 3), Word(tuple(draw(words)), 3),
                          Word(tuple(draw(words)), 3), schedule)


@settings(max_examples=200, deadline=None)
@given(law=laws(), horizon=st.integers(0, 120), steps=st.integers(0, 50))
def test_segment_laws_sequence_symbol_and_shift_agree(law, horizon, steps):
    seq = law.sequence(horizon)
    assert seq == [law.symbol(n) for n in range(1, horizon + 1)]
    assert law.shift(steps).sequence(horizon) == law.sequence(horizon + steps)[steps:]


def test_constructed_law_far_symbol_by_super_block_arithmetic():
    i_word, j_word = Word((1, 2), 3), Word((3,), 3)
    law = ConstructedLaw(Word((2, 2, 2), 3), i_word, j_word, [(2, 3), (4, 5)])
    finite = 3 + 2 * 2 + 3 + 4 * 2 + 5
    block = (1, 2) * 4 + (3,) * 5
    n = 10**12
    assert law.symbol(n) == block[(n - finite - 1) % len(block)]
    assert law.shift(n - 1).symbol(1) == law.symbol(n)


# ---------------------------------------------------------------------------
# the sequence metric


def test_law_metric_identical_laws():
    law = doubling_law()
    assert law_metric(law, law) == 0.0


def test_law_metric_first_symbol_difference():
    a = ExplicitLaw(Word((1,), 2), fallback=2)
    b = PeriodicLaw(Word((2,), 2))
    # laws agree from n = 2 on, differ at n = 1
    assert law_metric(a, b) == pytest.approx(0.5, abs=1e-15)


def test_law_metric_alternating_vs_constant():
    a = PeriodicLaw(Word((1, 2), 2))
    b = PeriodicLaw(Word((2, 2), 2))
    # differs at every odd n: sum over odd n of 2^-n = 2/3
    assert law_metric(a, b) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_law_metric_precision_window():
    a = PeriodicLaw(Word((1,), 2))
    blocks = BlockLaw([(1, 53), (2, 1)], alphabet_size=2)
    # differ only beyond the default 53-symbol window
    assert law_metric(a, blocks) == 0.0
    assert law_metric(a, blocks, precision=60) > 0.0


def test_law_metric_pseudometric_properties():
    laws = [
        PeriodicLaw(Word((1, 2, 2), 2)),
        doubling_law(),
        ExplicitLaw(Word((2, 1), 2)),
    ]
    for x in laws:
        assert law_metric(x, x) == 0.0
        for y in laws:
            assert law_metric(x, y) == pytest.approx(law_metric(y, x), abs=1e-15)
            for z in laws:
                assert (
                    law_metric(x, z)
                    <= law_metric(x, y) + law_metric(y, z) + 1e-12
                )


def test_law_metric_alphabet_mismatch():
    with pytest.raises(InvalidInputError):
        law_metric(PeriodicLaw(Word((1,), 1)), PeriodicLaw(Word((1,), 2)))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_words_lex_order():
    words = list(enumerate_words(2, 3))
    assert len(words) == 8
    assert words[0].symbols == (1, 1, 1)
    assert words[-1].symbols == (2, 2, 2)
    assert [w.symbols for w in words[:3]] == [(1, 1, 1), (1, 1, 2), (1, 2, 1)]


def test_enumerate_words_budget_raises_before_iteration():
    with pytest.raises(BudgetExceededError):
        enumerate_words(2, 23)  # 2^23 exceeds the default budget


def test_necklace_counts_binary():
    for length, want in enumerate(BINARY_NECKLACES, start=1):
        got = sum(1 for _ in enumerate_necklaces(2, length))
        assert got == want


def _euler_phi(n):
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def test_necklace_counts_match_divisor_sum():
    # (1/n) * sum over divisors e of phi(e) * K^(n/e)
    for k in (2, 3):
        for n in range(1, 9):
            total = sum(
                _euler_phi(e) * k ** (n // e) for e in range(1, n + 1) if n % e == 0
            )
            want = total // n
            got = sum(1 for _ in enumerate_necklaces(k, n))
            assert got == want


def test_necklace_representatives_are_rotation_minimal():
    for word in enumerate_necklaces(2, 6):
        tup = word.symbols
        rotations = [tup[i:] + tup[:i] for i in range(len(tup))]
        assert tup == min(rotations)


def test_necklaces_cover_all_words_up_to_rotation():
    reps = set()
    for word in enumerate_necklaces(2, 5):
        tup = word.symbols
        for i in range(5):
            reps.add(tup[i:] + tup[:i])
    assert reps == {w.symbols for w in enumerate_words(2, 5)}


# ---------------------------------------------------------------------------
# run profiles


def test_run_profile_doubling():
    prof = run_profile(doubling_law(), horizon=14, window_width=7)
    assert prof.windows == [(1, {1: 2, 2: 4}), (8, {1: 7, 2: 0})]


def test_run_profile_partial_window_dropped():
    prof = run_profile(PeriodicLaw(Word((1, 2), 2)), horizon=10, window_width=4)
    assert len(prof.windows) == 2  # the trailing 2 symbols do not form a window
    for _, runs in prof.windows:
        assert runs == {1: 1, 2: 1}


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "law",
    [
        PeriodicLaw(Word((1, 2, 2), 2)),
        ExplicitLaw(Word((2, 1), 2), fallback=1),
        doubling_law(),
        BlockLaw([(1, 4), (2, 9)], alphabet_size=2),
        ConstructedLaw(Word((2,), 2), Word((1,), 2), Word((2, 2), 2), [(1, 2), (3, 4)]),
    ],
)
def test_law_spec_round_trip(law):
    spec = json.loads(json.dumps(law_to_spec(law)))
    back = law_from_spec(spec)
    assert back.sequence(400) == law.sequence(400)


def test_law_from_spec_validation():
    with pytest.raises(InvalidInputError):
        law_from_spec({"type": "unknown", "alphabet": 2})
    with pytest.raises(InvalidInputError):
        law_from_spec({"type": "periodic", "alphabet": 2})  # missing word
    with pytest.raises(InvalidInputError):
        law_from_spec({"type": "periodic", "alphabet": True, "word": [1]})
    with pytest.raises(InvalidInputError):
        law_from_spec({"type": "doubling", "alphabet": 3})
    with pytest.raises(InvalidInputError):
        law_from_spec({"type": "blocks", "alphabet": 2, "blocks": [[1, 0]]})
    with pytest.raises(InvalidInputError):
        law_from_spec([1, 2, 3])


def test_custom_rule_block_law_is_not_serializable():
    law = BlockLaw([], alphabet_size=2, rule=lambda m: (1, m))
    with pytest.raises(InvalidInputError):
        law_to_spec(law)


def test_doubling_metric_against_itself_shifted():
    # shifting the doubling law changes early symbols, so the metric is
    # positive but bounded by 1
    law = doubling_law()
    d = law_metric(law, law.shift(1))
    assert 0.0 < d < 1.0
