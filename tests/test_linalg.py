import math

import numpy as np
import pytest

from chaoslab import (
    InvalidInputError,
    LogScaledMatrix,
    as_matrix,
    co_norm,
    op_norm,
    spectral_radius,
    word_product,
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
    assert spectral_radius(np.diag([2.0, 0.5])).radius == pytest.approx(2.0, abs=1e-15)
    # complex pair: rotation has radius exactly 1
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert spectral_radius(rot).radius == pytest.approx(1.0, abs=1e-15)
    # defective: the shear has the double eigenvalue 1
    assert spectral_radius(SHEAR).radius == pytest.approx(1.0, abs=1e-12)
    assert spectral_radius(np.array([[-4.0]])).radius == 4.0


def test_spectral_radius_known_3x3():
    # companion matrix of (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    c = np.array([[0.0, 0.0, 6.0], [1.0, 0.0, -11.0], [0.0, 1.0, 6.0]])
    assert spectral_radius(c).radius == pytest.approx(3.0, rel=1e-9)


def test_spectral_radius_rho_le_norm_random():
    rng = np.random.default_rng(3)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d))
        assert spectral_radius(a).radius <= op_norm(a) * (1.0 + 1e-10) + 1e-300


def test_spectral_radius_scaling():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4))
    r = spectral_radius(a).radius
    assert spectral_radius(3.5 * a).radius == pytest.approx(3.5 * r, rel=1e-10)


def test_spectrum_residual_is_small_for_diagonalizable():
    rng = np.random.default_rng(19)
    a = random_invertible(rng, 5)
    spec = spectral_radius(a)
    assert spec.roots_found == 5
    assert spec.residual <= 1e-8


# ---------------------------------------------------------------------------
# log-scaled products


def test_log_scaled_identity_and_from_matrix():
    ident = LogScaledMatrix.identity(3)
    assert ident.log_scale == 0.0
    assert np.allclose(ident.dense(), np.eye(3))
    m = LogScaledMatrix.from_matrix(np.diag([4.0, 4.0]))
    assert op_norm(m.unit) == pytest.approx(1.0, abs=1e-12)
    assert m.log_scale == pytest.approx(math.log(4.0), abs=1e-12)


def test_log_scaled_rejects_zero_matrix():
    with pytest.raises(InvalidInputError):
        LogScaledMatrix.from_matrix(np.zeros((2, 2)))


def test_log_scaled_band_maintained():
    rng = np.random.default_rng(31)
    state = LogScaledMatrix.identity(3)
    for _ in range(200):
        state = state.left_multiply(rng.standard_normal((3, 3)))
        assert 0.5 - 1e-12 <= op_norm(state.unit) <= 2.0 + 1e-12


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


def test_log_scaled_co_norm_of_singular_product():
    state = LogScaledMatrix.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert state.log_co_norm == -math.inf


def test_log_scaled_unit_is_read_only():
    state = LogScaledMatrix.identity(2)
    with pytest.raises(ValueError):
        state.unit[0, 0] = 5.0


# ---------------------------------------------------------------------------
# word products


def test_word_product_applies_rightmost_first():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [2.0, 1.0]])
    got = word_product([a, b], (1, 2)).dense()
    assert np.allclose(got, b @ a, atol=1e-12)


def test_word_product_empty_word_is_identity():
    prod = word_product([np.diag([3.0, 3.0])], ())
    assert np.allclose(prod.dense(), np.eye(2))


def test_word_product_label_validation():
    with pytest.raises(InvalidInputError):
        word_product([np.eye(2)], (2,))
    with pytest.raises(InvalidInputError):
        word_product([np.eye(2)], (0,))


def test_word_product_long_alternation():
    gens = [np.diag([0.5, 0.5]), np.diag([2.0, 2.0])]
    prod = word_product(gens, (1, 2) * 500)
    assert prod.log_op_norm == pytest.approx(0.0, abs=1e-9)
