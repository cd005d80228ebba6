import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    InvalidInputError,
    LogScaledMatrix,
    MatrixSystem,
    as_matrix,
    co_norm,
    op_norm,
    spectral_radius,
    walk,
    walk_rows,
    word_tree,
)

from conftest import GOLDEN, random_invertible

SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# validation


def test_as_matrix_rejects_non_square():
    with pytest.raises(InvalidInputError):
        as_matrix(np.ones((2, 3)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.inf]]))


def test_as_matrix_rejects_empty_and_ragged():
    with pytest.raises(InvalidInputError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(InvalidInputError):
        as_matrix([[1.0, 2.0], [3.0]])


def test_as_matrix_accepts_lists_and_copies():
    a = as_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.float64
    assert a[0, 1] == 2.0


# ---------------------------------------------------------------------------
# operator norm and co-norm


def test_op_norm_shear_is_golden_ratio():
    # Largest singular value of the unit upper shear.
    assert op_norm(SHEAR) == pytest.approx(GOLDEN, abs=1e-12)


def test_co_norm_shear_is_inverse_golden_ratio():
    assert co_norm(SHEAR) == pytest.approx(GOLDEN - 1.0, abs=1e-12)
    assert co_norm(SHEAR) == pytest.approx(1.0 / GOLDEN, abs=1e-12)


def test_norms_are_plain_floats():
    for a in (SHEAR, np.diag([2.0, 3.0]), np.array([[-3.0]]), np.eye(3)):
        assert type(op_norm(a)) is float
        assert type(co_norm(a)) is float


def test_norms_on_diagonal_and_identity():
    assert op_norm(np.diag([0.5, 0.5])) == pytest.approx(0.5, abs=1e-15)
    assert co_norm(np.diag([2.0, 3.0])) == pytest.approx(2.0, abs=1e-15)
    assert op_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-15)
    assert op_norm(np.array([[-3.0]])) == 3.0
    assert co_norm(np.array([[-3.0]])) == 3.0


def test_norms_of_singular_matrix():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert op_norm(a) == pytest.approx(1.0, abs=1e-15)
    assert co_norm(a) == pytest.approx(0.0, abs=1e-15)
    z = np.zeros((3, 3))
    assert op_norm(z) == 0.0
    assert co_norm(z) == 0.0


def test_norm_ordering_and_duality_random():
    """co_norm <= op_norm always, and co_norm(A) = 1/op_norm(inv(A)).

    The duality comparison is absolute at the scale of the largest singular
    value, which is the precision the factorization itself guarantees.
    """
    rng = np.random.default_rng(101)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        a = random_invertible(rng, d)
        top, bottom = op_norm(a), co_norm(a)
        assert bottom <= top * (1.0 + 1e-12)
        dual = 1.0 / op_norm(np.linalg.inv(a))
        assert abs(bottom - dual) <= 1e-8 * max(1.0, top)


def test_submultiplicative_and_supermultiplicative():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        ab = a @ b
        assert op_norm(ab) <= op_norm(a) * op_norm(b) * (1.0 + 1e-12) + 1e-300
        assert co_norm(ab) >= co_norm(a) * co_norm(b) * (1.0 - 1e-12) - 1e-300


# ---------------------------------------------------------------------------
# spectral radius


def test_spectral_radius_closed_forms():
    assert spectral_radius(np.diag([2.0, 0.5])) == pytest.approx(2.0, abs=1e-15)
    # complex pair: rotation has radius exactly 1
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert spectral_radius(rot) == pytest.approx(1.0, abs=1e-15)
    # defective: the shear has the double eigenvalue 1
    assert spectral_radius(SHEAR) == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(np.array([[-4.0]])) == 4.0


def test_spectral_radius_known_3x3():
    # companion matrix of (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    c = np.array([[0.0, 0.0, 6.0], [1.0, 0.0, -11.0], [0.0, 1.0, 6.0]])
    assert spectral_radius(c) == pytest.approx(3.0, rel=1e-9)


def test_spectral_radius_rho_le_norm_random():
    rng = np.random.default_rng(3)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d))
        assert spectral_radius(a) <= op_norm(a) * (1.0 + 1e-10) + 1e-300


def test_spectral_radius_scaling():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4))
    r = spectral_radius(a)
    assert spectral_radius(3.5 * a) == pytest.approx(3.5 * r, rel=1e-10)


def test_spectral_radius_matches_mpmath_oracle():
    # A = V D V^-1 with D holding real eigenvalues and, for odd d, one
    # complex pair as a 2x2 rotation-scaling block; the oracle is mpmath's
    # eigenvalue solver at 50 digits on the same float entries.
    import mpmath
    rng = np.random.default_rng(29)
    for d in (3, 4, 5, 6) * 5:
        block = np.diag(rng.uniform(-2.0, 2.0, d))
        if d % 2:
            r, theta = rng.uniform(0.5, 2.0), rng.uniform(0.2, 3.0)
            block[:2, :2] = r * np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
        v = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        a = v @ block @ np.linalg.inv(v)
        with mpmath.workdps(50):
            eigs, _ = mpmath.eig(mpmath.matrix(a.tolist()))
            expected = float(max(abs(e) for e in eigs))
        assert spectral_radius(a) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("scale", [1e80, 1e-80, 1e200, 1e-200, 1e300, 1e-300])
def test_2x2_norms_and_radius_match_mpmath_at_extreme_scales(scale):
    # Squaring entries of this size leaves the float range, so the 2x2
    # closed forms must hand these matrices to LAPACK.  The oracle is
    # mpmath at 60 digits on the same float entries.
    import mpmath
    for base in (SHEAR, [[0.6, -1.3], [0.9, 0.4]], np.eye(2)):
        a = scale * np.array(base)
        with mpmath.workdps(60):
            m = mpmath.matrix(a.tolist())
            sv = mpmath.svd_r(m, compute_uv=False)
            eigs, _ = mpmath.eig(m)
            top, bottom = float(max(sv)), float(min(sv))
            rho = float(max(abs(e) for e in eigs))
        assert op_norm(a) == pytest.approx(top, rel=1e-12, abs=0.0)
        assert co_norm(a) == pytest.approx(bottom, rel=1e-12, abs=0.0)
        assert spectral_radius(a) == pytest.approx(rho, rel=1e-12, abs=0.0)


def test_spectral_radius_is_a_plain_float():
    rng = np.random.default_rng(31)
    for d in (1, 2, 4):
        assert type(spectral_radius(rng.standard_normal((d, d)))) is float


# ---------------------------------------------------------------------------
# log-scaled products


def test_log_scaled_identity_and_from_matrix():
    ident = LogScaledMatrix.identity(3)
    assert ident.log_scale == 0.0
    assert np.allclose(ident.dense(), np.eye(3))
    m = LogScaledMatrix.from_matrix(np.diag([4.0, 4.0]))
    assert m.log_op_norm == pytest.approx(math.log(4.0), abs=1e-12)


@pytest.mark.parametrize("dim", [2.5, True, "2", None])
def test_log_scaled_identity_dim_is_validated(dim):
    with pytest.raises(InvalidInputError, match="dimension must be at least 1"):
        LogScaledMatrix.identity(dim)


def test_log_scaled_rejects_zero_matrix():
    with pytest.raises(InvalidInputError):
        LogScaledMatrix.from_matrix(np.zeros((2, 2)))


def test_log_scaled_band_maintained():
    rng = np.random.default_rng(31)
    state = LogScaledMatrix.identity(3)
    for _ in range(200):
        state = state.left_multiply(rng.standard_normal((3, 3)))
        assert 0.5 <= np.abs(state.unit).max() <= 2.0


def test_left_multiply_computes_no_norm(monkeypatch):
    def refuse(a):
        raise AssertionError("left_multiply computed a norm")

    monkeypatch.setattr("chaoslab.linalg._singular_extremes", refuse)
    rng = np.random.default_rng(5)
    state = LogScaledMatrix.from_matrix(rng.standard_normal((2, 2)))
    for scale in (1.0, 1e-3, 1e3) * 20:
        state = state.left_multiply(scale * rng.standard_normal((2, 2)))


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-310])
@pytest.mark.parametrize("dim", [2, 3])
def test_log_scaled_walk_past_float_range_matches_mpmath(scale, dim):
    # Every partial product leaves the float range from the second step on,
    # and 1e-310 makes the generators subnormal.  The oracle multiplies the
    # same float entries in mpmath, whose exponents are unbounded.
    import mpmath
    rng = np.random.default_rng(17)
    gens = [scale * rng.standard_normal((dim, dim)) for _ in range(2)]
    state = LogScaledMatrix.identity(dim)
    with mpmath.workdps(40):
        exact = mpmath.eye(dim)
        for step in range(50):
            g = gens[step % 2]
            state = state.left_multiply(g)
            exact = mpmath.matrix(g.tolist()) * exact
            assert np.isfinite(state.unit).all()
        want = float(mpmath.log(max(mpmath.svd_r(exact, compute_uv=False))))
    assert state.log_op_norm == pytest.approx(want, rel=1e-12)


def test_log_scaled_matches_extended_precision():
    """200-factor products agree with a longdouble reference to 1e-6."""
    rng = np.random.default_rng(37)
    factors = [random_invertible(rng, 3, spread=0.8) for _ in range(200)]
    state = LogScaledMatrix.identity(3)
    reference = np.eye(3, dtype=np.longdouble)
    log_pulled = 0.0
    for f in factors:
        state = state.left_multiply(f)
        reference = f.astype(np.longdouble) @ reference
        # pull the scale out of the reference too, to keep it representable
        top = np.sqrt(np.sum(np.abs(reference) ** 2))
        reference = reference / top
        log_pulled += float(np.log(top))
    ref_norm = op_norm(reference.astype(float))
    assert state.log_op_norm == pytest.approx(
        log_pulled + math.log(ref_norm), abs=1e-6
    )


def test_log_scaled_huge_growth_stays_finite():
    state = LogScaledMatrix.identity(2)
    g = np.diag([2.0, 2.0])
    for _ in range(5000):
        state = state.left_multiply(g)
    assert state.log_op_norm == pytest.approx(5000 * math.log(2.0), rel=1e-12)
    assert np.isfinite(state.unit).all()


def test_left_multiply_refuses_zero_and_non_finite_products():
    state = LogScaledMatrix(np.array([[1.5, 0.5], [-1.5, 0.5]]), 0.0)
    with pytest.raises(InvalidInputError, match="collapsed to the zero matrix"):
        state.left_multiply(np.zeros((2, 2)))

    class NanAfterFiniteEntries:
        # Without fused multiply-adds, inf - inf in one entry of an
        # overflowing product leaves a NaN beside finite entries.
        def __matmul__(self, unit):
            return np.array([[1.0, 1.0], [math.nan, 4.0]])

    with pytest.raises(InvalidInputError, match="must be finite"):
        state.left_multiply(NanAfterFiniteEntries())
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="must be finite"):
        state.left_multiply(np.array([[1.5e308, 1.5e308], [1.0, 1.0]]))


def _left_multiply_oracle(state, a):
    """The reference rule on numpy's peak read: (unit, log_scale) of a @ state."""
    raw = a @ state.unit
    peak = float(np.abs(raw).max())
    if 0.5 <= peak <= 2.0:
        return raw, state.log_scale
    if not 0.0 < peak < math.inf:
        raise InvalidInputError("product collapsed to the zero matrix" if peak == 0.0
                                else "matrix entries must be finite")
    e = math.frexp(peak)[1]
    return np.ldexp(raw, -e), state.log_scale + e * math.log(2.0)


def _assert_left_multiply_is_oracle(state, a):
    try:
        unit, log_scale = _left_multiply_oracle(state, a)
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError, match=f"^{exc}$"):
            state.left_multiply(a)
        return None
    prod = state.left_multiply(a)
    assert prod.unit.tobytes() == unit.tobytes()
    assert prod.log_scale == log_scale
    return prod


class _Product:
    """Stands in for a generator whose product with any unit is ``raw``."""

    def __init__(self, raw):
        self.raw = np.array(raw, dtype=float)

    def __matmul__(self, unit):
        return self.raw.copy()


@pytest.mark.parametrize("pos", range(4))
def test_left_multiply_refuses_a_nan_at_each_position_of_a_2x2_product(pos):
    # The other entries sit in the band, so only the NaN can refuse it.
    vals = [1.0, -1.5, 0.75, 2.0]
    vals[pos] = math.nan
    with pytest.raises(InvalidInputError, match="^matrix entries must be finite$"):
        LogScaledMatrix.identity(2).left_multiply(_Product(np.reshape(vals, (2, 2))))


@pytest.mark.parametrize("row, col", itertools.product(range(2), range(2)))
def test_left_multiply_refuses_finite_inputs_that_overflow_into_inf_minus_inf(row, col):
    # Entry (row, col) is 1.5e308 * 1.5 - 1.5e308 * 1.5: inf - inf, or an
    # infinity where a fused multiply-add keeps one product exact.  The
    # other entry of that row stays finite.
    unit = np.ones((2, 2))
    unit[:, col] = 1.5
    unit[:, 1 - col] = [1.0, 0.5]
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    a[row] = [1.5e308, -1.5e308]
    state = LogScaledMatrix(unit, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInputError, match="^matrix entries must be finite$"):
            state.left_multiply(a)


@pytest.mark.parametrize("raw, log2_scale", [
    ([[0.5, 0.25], [-0.125, 0.0]], 0),
    ([[2.0, -1.0], [0.5, 1.0]], 0),
    ([[-0.5, 0.25], [0.1, 0.2]], 0),
    ([[-2.0, 1.0], [0.5, 1.0]], 0),
    ([[0.1, -2.0], [0.5, 1.0]], 0),
    ([[1.0, 0.5], [0.25, -2.0]], 0),
    ([[-3.0, 1.0], [1.0, 1.0]], 2),
    ([[0.1, 0.2], [-0.25, 0.1]], -1),
    ([[math.nextafter(2.0, 3.0), 0.0], [0.0, 1.0]], 2),
    ([[0.0, 0.0], [0.0, -math.nextafter(0.5, 0.0)]], -1),
])
def test_left_multiply_band_edges_and_negative_peaks(raw, log2_scale):
    # A product whose largest |entry| is exactly 0.5 or 2.0 stays as it is,
    # a negative entry counts by its magnitude, and a peak just outside the
    # band is rescaled by an exact power of two.
    prod = _assert_left_multiply_is_oracle(LogScaledMatrix.identity(2), _Product(raw))
    assert prod.log_scale == log2_scale * math.log(2.0)


@pytest.mark.parametrize("dim", [2, 4])
def test_walk_products_are_the_numpy_peak_rule_bit_for_bit(dim):
    rng = np.random.default_rng(30 + dim)
    gens = [s * random_invertible(rng, dim) for s in (0.3, 1.0, 3.0, 1e-200, 1e200)]
    symbols = rng.integers(1, 6, size=400).tolist()
    state = LogScaledMatrix.identity(dim)
    for sym, prod in zip(symbols, walk(gens, symbols)):
        state = _assert_left_multiply_is_oracle(state, gens[sym - 1])
        assert prod.unit.tobytes() == state.unit.tobytes()
        assert prod.log_scale == state.log_scale


_FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLOAT_BITS, min_size=4, max_size=4),
       st.sampled_from([1.0, 1e-160, 1e160]))
def test_2x2_left_multiply_is_the_numpy_peak_rule(entries, spread):
    # Arbitrary float64 bit patterns, NaN and infinities included, against
    # a unit that keeps the products near, below or above the band.
    state = LogScaledMatrix.from_matrix(spread * np.array([[1.5, 0.5], [-1.5, 0.5]]))
    with np.errstate(all="ignore"):
        _assert_left_multiply_is_oracle(state, np.reshape(entries, (2, 2)))


def test_log_scaled_co_norm_of_singular_product():
    state = LogScaledMatrix.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert state.log_co_norm == -math.inf


@pytest.mark.parametrize("unit, log_scale", [
    ([[math.nan, 0.0], [0.0, 1.0]], 0.0),
    ([[math.inf, 0.0], [0.0, 1.0]], 0.0),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 0.0),
    (np.zeros((0, 0)), 0.0),
    (np.eye(2), math.nan),
    (np.eye(2), -math.inf),
    (np.eye(2), True),
    (np.eye(2), "0"),
], ids=["nan-unit", "inf-unit", "non-square", "empty", "nan-scale", "inf-scale", "bool-scale",
        "str-scale"])
def test_log_scaled_constructor_rejects_bad_parts(unit, log_scale):
    with pytest.raises(InvalidInputError):
        LogScaledMatrix(unit=np.array(unit, dtype=float), log_scale=log_scale)


def test_log_scaled_constructor_accepts_finite_square_parts():
    m = LogScaledMatrix(unit=[[2.0, 0.0], [0.0, 1.0]], log_scale=1.0)
    assert m.log_op_norm == pytest.approx(1.0 + math.log(2.0), abs=1e-15)
    assert m.log_spectral_radius == pytest.approx(1.0 + math.log(2.0), abs=1e-15)
    assert not m.unit.flags.writeable


def test_log_scaled_unit_is_read_only():
    state = LogScaledMatrix.identity(2)
    with pytest.raises(ValueError):
        state.unit[0, 0] = 5.0


# ---------------------------------------------------------------------------
# word products


def test_word_product_applies_rightmost_first():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [2.0, 1.0]])
    got = MatrixSystem([a, b]).word_product((1, 2)).dense()
    assert np.allclose(got, b @ a, atol=1e-12)


def test_word_product_empty_word_is_identity():
    prod = MatrixSystem([np.diag([3.0, 3.0])]).word_product(())
    assert np.allclose(prod.dense(), np.eye(2))


def test_word_product_label_validation():
    with pytest.raises(InvalidInputError):
        MatrixSystem([np.eye(2)]).word_product((2,))
    with pytest.raises(InvalidInputError):
        MatrixSystem([np.eye(2)]).word_product((0,))


@pytest.mark.parametrize("label", [1.5, True, "2"])
def test_word_product_rejects_non_integer_labels(label):
    system = MatrixSystem([np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(InvalidInputError):
        system.word_product((label,))


def test_word_product_long_alternation():
    gens = [np.diag([0.5, 0.5]), np.diag([2.0, 2.0])]
    prod = MatrixSystem(gens).word_product((1, 2) * 500)
    assert prod.log_op_norm == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# word tree


def _all_words(k, depth):
    return [w for n in range(1, depth + 1) for w in itertools.product(range(1, k + 1), repeat=n)]


def test_word_tree_order_k3_depth3():
    gens = [np.eye(2)] * 3
    got = [symbols for symbols, _ in word_tree(gens, 3)]
    # Tuple order puts every word before its extensions and siblings lexicographically.
    assert got == sorted(_all_words(3, 3))
    assert got[:5] == [(1,), (1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 3)]
    assert len(got) == 3 + 9 + 27


def test_word_tree_empty_children_skip_only_that_subtree():
    gens = [np.eye(2)] * 3
    got = [
        symbols
        for symbols, _ in word_tree(gens, 4,
                                    lambda symbols, prod: () if symbols == (1, 2) else (1, 2, 3))
    ]
    want = [w for w in sorted(_all_words(3, 4)) if not (w[:2] == (1, 2) and len(w) > 2)]
    assert got == want


def test_word_tree_children_runs_after_the_loop_body():
    events = []

    def children(symbols, prod):
        events.append(("children", symbols))
        return (1, 2)

    for symbols, _ in word_tree([np.eye(1)] * 2, 2, children):
        events.append(("body", symbols))
    assert events == [
        ("body", (1,)), ("children", (1,)), ("body", (1, 1)), ("body", (1, 2)),
        ("body", (2,)), ("children", (2,)), ("body", (2, 1)), ("body", (2, 2)),
    ]


def test_word_tree_never_multiplies_a_child_outside_children(monkeypatch):
    # Generator s is s * I, so each multiplication names the symbol it appends.
    gens = [s * np.eye(2) for s in (1.0, 2.0, 3.0)]
    multiplied = []
    inner = LogScaledMatrix.left_multiply

    def counted(self, a):
        multiplied.append(int(a[0, 0]))
        return inner(self, a)

    monkeypatch.setattr(LogScaledMatrix, "left_multiply", counted)
    # Extend a word only by symbols at least its last one: nondecreasing words.
    got = [symbols for symbols, _ in word_tree(gens, 4,
                                               lambda symbols, prod: range(symbols[-1], 4))]
    want = [w for w in sorted(_all_words(3, 4)) if list(w) == sorted(w)]
    assert got == want
    assert multiplied == [w[-1] for w in want]


def test_word_tree_depth_zero_yields_nothing():
    assert list(word_tree([np.eye(2)], 0)) == []


def test_word_tree_log_scaled_start_matches_word_product_bitwise():
    rng = np.random.default_rng(3)
    # Norms far from 1 force renormalization at most steps.
    gens = [3.0 * rng.normal(size=(2, 2)), 0.2 * rng.normal(size=(2, 2)), rng.normal(size=(2, 2))]
    system = MatrixSystem(gens)
    for symbols, prod in word_tree(gens, 5):
        want = system.word_product(symbols)
        assert prod.unit.tobytes() == want.unit.tobytes()
        assert prod.log_scale == want.log_scale


def test_word_tree_products_are_chained_float_products_times_powers_of_two():
    rng = np.random.default_rng(4)
    # Norms far from 1 force a rescaling at most steps.
    gens = [3.0 * rng.normal(size=(3, 3)), 0.2 * rng.normal(size=(3, 3))]
    for symbols, prod in word_tree(gens, 6):
        want = np.eye(3)
        for sym in symbols:
            want = gens[sym - 1] @ want
        k = math.frexp(np.abs(want).max())[1] - math.frexp(np.abs(prod.unit).max())[1]
        assert prod.unit.tobytes() == np.ldexp(want, -k).tobytes()
        assert prod.log_scale == pytest.approx(k * math.log(2.0), abs=1e-12)


def test_word_tree_walks_deep_single_letter_trees():
    words = list(word_tree([np.array([[1.0]])], 3000))
    assert len(words) == 3000
    assert words[-1][0] == (1,) * 3000


# ---------------------------------------------------------------------------
# batched walk


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_walk_rows_is_walk_bit_for_bit(dim, k):
    # Generator scales from 1e-200 to 1e200 next to scales near 1: some rows
    # leave the band at every step, others only now and then, each at its
    # own steps.
    rng = np.random.default_rng(10 * dim + k)
    scales = rng.choice([1e-200, 0.7, 1.0, 1.3, 1e200], size=k)
    gens = [s * random_invertible(rng, dim) for s in scales]
    draws = rng.integers(1, k + 1, size=(9, 80))
    prods = walk_rows(gens, draws)
    assert len(prods) == len(draws)
    for row, prod in zip(draws, prods):
        *_, last = walk(gens, row)
        assert prod.unit.tobytes() == last.unit.tobytes()
        assert prod.log_scale == last.log_scale


def test_walk_rows_of_no_rows_or_no_steps():
    assert walk_rows([SHEAR], np.ones((0, 5), dtype=int)) == []
    (prod,) = walk_rows([SHEAR], np.ones((1, 0), dtype=int))
    assert prod.unit.tobytes() == np.eye(2).tobytes() and prod.log_scale == 0.0


# Row 1 collapses at its second step, row 2 overflows at its first; the
# unbatched walk meets row 1 first.
_PROJ = np.array([[1.0, 0.0], [0.0, 0.0]])
_NILP = np.array([[0.0, 0.0], [1.0, 0.0]])
_HUGE = np.array([[np.inf, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("gens, draws, message", [
    ([_PROJ, _NILP], [[1, 1, 1], [2, 1, 1]], "product collapsed to the zero matrix"),
    ([np.eye(2), _HUGE], [[1, 1, 1], [1, 2, 1]], "matrix entries must be finite"),
    ([_PROJ, _NILP, _HUGE], [[2, 1, 1], [3, 1, 1]], "product collapsed to the zero matrix"),
    ([_PROJ, _NILP, _HUGE], [[3, 1, 1], [2, 1, 1]], "matrix entries must be finite"),
])
def test_walk_rows_raises_what_walk_raises_on_the_first_failing_row(gens, draws, message):
    draws = np.array(draws)
    with np.errstate(invalid="ignore"):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            for row in draws:
                for _ in walk(gens, row):
                    pass
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            walk_rows(gens, draws)
