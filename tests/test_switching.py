import itertools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    BlockLaw,
    ConstructedLaw,
    ExplicitLaw,
    InvalidInputError,
    MatrixSystem,
    PeriodicLaw,
    SwitchingLaw,
    Word,
    doubling_law,
    law_from_spec,
    law_metric,
    law_to_spec,
    necklace_log_radii,
)
from chaoslab.errors import require_int

from conftest import lyndon_count

# Lyndon word (aperiodic necklace) counts for a binary alphabet, lengths 1..10.
BINARY_LYNDON = (2, 1, 2, 3, 6, 9, 18, 30, 56, 99)


# ---------------------------------------------------------------------------
# words


def test_word_basics():
    w = Word((1, 2, 2), 2)
    assert len(w) == 3
    assert list(w) == [1, 2, 2]
    assert w[0] == 1
    assert w.text() == "1-2-2"


def test_word_validation():
    with pytest.raises(InvalidInputError):
        Word((0,), 2)
    with pytest.raises(InvalidInputError):
        Word((3,), 2)
    with pytest.raises(InvalidInputError):
        Word((1,), 0)


def test_word_rejects_fractional_symbols():
    with pytest.raises(InvalidInputError):
        Word((1.5, 2.9), 2)


def test_word_rejects_string_symbols():
    with pytest.raises(InvalidInputError):
        Word(("2",), 2)


def test_word_rejects_bool_symbols():
    with pytest.raises(InvalidInputError):
        Word((True,), 2)


def test_word_accepts_integer_valued_numbers():
    w = Word((np.int64(2), 1.0, np.float64(2.0)), 2)
    assert w.symbols == (2, 1, 2)
    assert all(type(s) is int for s in w.symbols)


@pytest.mark.parametrize("symbols, size", [((1,), 2.5), ((), True)])
def test_word_rejects_non_integer_alphabet_size(symbols, size):
    with pytest.raises(InvalidInputError):
        Word(symbols, size)


def test_word_stores_alphabet_size_as_int():
    w = Word((2,), np.int64(2))
    assert type(w.alphabet_size) is int
    spec = PeriodicLaw(Word((2,), 2.0)).spec_dict()
    assert type(spec["alphabet"]) is int
    assert law_from_spec(spec).sequence(3) == [2, 2, 2]


# Everything that takes a symbol over the alphabet {1, 2}, returning the
# label it stored.
LABELED = MatrixSystem([np.eye(2), 2.0 * np.eye(2)])
LABEL_TAKERS = {
    "word": lambda v: Word((v,), 2).symbols[0],
    "fallback": lambda v: ExplicitLaw(Word((), 2), fallback=v).symbol(1),
    "block": lambda v: BlockLaw([(v, 1)], 2).symbol(1),
    "generator": lambda v: int(LABELED.generator(v)[0, 0]),
}


@pytest.mark.parametrize("take", LABEL_TAKERS.values(), ids=LABEL_TAKERS.keys())
@pytest.mark.parametrize("value, label", [(1, 1), (2, 2), (2.0, 2), (np.int64(2), 2)])
def test_one_label_rule_accepts_integer_valued_symbols(take, value, label):
    stored = take(value)
    assert stored == label and type(stored) is int


@pytest.mark.parametrize("take", LABEL_TAKERS.values(), ids=LABEL_TAKERS.keys())
@pytest.mark.parametrize("value", [0, 3, 1.5, True, np.True_, "1", None, math.nan])
def test_one_label_rule_refuses_other_symbols(take, value):
    with pytest.raises(InvalidInputError):
        take(value)


@pytest.mark.parametrize("value", [True, np.True_])
def test_require_int_refuses_bools(value):
    with pytest.raises(InvalidInputError):
        require_int(value, 0, "x")


# ---------------------------------------------------------------------------
# law classes


def test_periodic_law_symbols_and_shift():
    law = PeriodicLaw(Word((1, 2, 2), 2))
    assert law.sequence(6) == [1, 2, 2, 1, 2, 2]
    assert law.symbol(7) == 1


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


def test_block_law_sequence_and_tail():
    law = BlockLaw([(1, 3), (2, 2)], alphabet_size=2)
    # after the listed blocks the final symbol repeats forever
    assert law.sequence(8) == [1, 1, 1, 2, 2, 2, 2, 2]
    assert law.symbol(10**6) == 2


def test_block_law_validation():
    with pytest.raises(InvalidInputError):
        BlockLaw([], alphabet_size=2)  # no blocks
    with pytest.raises(InvalidInputError):
        BlockLaw([(1, 0)], alphabet_size=2)
    with pytest.raises(InvalidInputError):
        BlockLaw([(3, 2)], alphabet_size=2)


def test_block_law_rejects_fractional_alphabet_size():
    with pytest.raises(InvalidInputError):
        BlockLaw([(1, 1)], alphabet_size=1.5)


def test_block_law_stores_alphabet_size_as_int():
    law = BlockLaw([(1, 1)], alphabet_size=2.0)
    assert type(law.spec_dict()["alphabet"]) is int


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
@given(law=laws(), horizon=st.integers(0, 120))
def test_segment_laws_sequence_symbol_and_shift_agree(law, horizon):
    seq = law.sequence(horizon)
    assert seq == [law.symbol(n) for n in range(1, horizon + 1)]


def test_constructed_law_far_symbol_by_super_block_arithmetic():
    i_word, j_word = Word((1, 2), 3), Word((3,), 3)
    law = ConstructedLaw(Word((2, 2, 2), 3), i_word, j_word, [(2, 3), (4, 5)])
    finite = 3 + 2 * 2 + 3 + 4 * 2 + 5
    block = (1, 2) * 4 + (3,) * 5
    n = 10**12
    assert law.symbol(n) == block[(n - finite - 1) % len(block)]


def test_constructed_law_reads_past_its_schedule_without_building_the_super_block():
    # The super-block i^L j^L here would hold 2e6 symbols (16 MB of pointers).
    law = ConstructedLaw(Word((), 2), Word((1,), 2), Word((2,), 2), [(10**6, 10**6)])
    tracemalloc.start()
    try:
        assert law.symbol(3 * 10**6 + 5) == 2
        symbol_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        seq = law.sequence(2 * 10**6)
        sequence_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert symbol_peak < 1e6
    assert seq == [1] * 10**6 + [2] * 10**6
    assert sequence_peak < 1.5 * sys.getsizeof(seq)


@pytest.mark.parametrize("law, head", [
    (PeriodicLaw(Word((1, 2, 2), 2)), [1, 2, 2]),
    (ExplicitLaw(Word((1, 2, 2), 2), fallback=1), [1, 2, 2, 1]),
])
def test_sequence_overrides_build_their_list_once(law, head):
    tracemalloc.start()
    try:
        seq = law.sequence(2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sys.getsizeof(seq)
    assert seq[:len(head)] == head
    assert seq == SwitchingLaw.sequence(law, 2 * 10**6)


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
# necklaces


def _lyndon_words(k, max_len):
    """Lyndon words up to max_len over k symbols, from the stability sweep."""
    system = MatrixSystem([[[0.5 + 0.1 * s]] for s in range(k)])
    return [symbols for symbols, _ in necklace_log_radii(system, max_len)]


def _lyndon_brute_force(k, n):
    """Every word of length n strictly less than each of its proper rotations."""
    return [
        tup for tup in itertools.product(range(1, k + 1), repeat=n)
        if all(tup < tup[i:] + tup[:i] for i in range(1, n))
    ]


def test_necklace_counts_binary():
    words = _lyndon_words(2, len(BINARY_LYNDON))
    for length, want in enumerate(BINARY_LYNDON, start=1):
        assert sum(1 for w in words if len(w) == length) == want == lyndon_count(2, length)


def test_necklace_counts_match_divisor_sum():
    for k in (2, 3):
        words = _lyndon_words(k, 8)
        for n in range(1, 9):
            assert sum(1 for w in words if len(w) == n) == lyndon_count(k, n)


def test_necklace_representatives_are_rotation_minimal():
    # the same words as a brute-force strict rotation filter, in tuple order
    for k in (2, 3):
        want = [tup for n in range(1, 9) for tup in _lyndon_brute_force(k, n)]
        assert _lyndon_words(k, 8) == sorted(want)


def test_necklaces_cover_all_words_up_to_rotation():
    # Every word of length n is a rotation of w^(n/|w|) for a Lyndon w with |w| | n.
    lyndon = _lyndon_words(2, 6)
    for n in (5, 6):
        reps = set()
        for w in lyndon:
            if n % len(w) == 0:
                power = w * (n // len(w))
                reps.update(power[i:] + power[:i] for i in range(n))
        assert reps == set(itertools.product((1, 2), repeat=n))


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


def test_doubling_metric_against_itself_shifted():
    # shifting the doubling law changes early symbols, so the metric is
    # positive but bounded by 1
    law = doubling_law()
    d = law_metric(law, ExplicitLaw(Word(tuple(law.sequence(54)[1:]), 2)))
    assert 0.0 < d < 1.0
