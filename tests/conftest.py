import math
import sys

import numpy as np
import pytest

from chaoslab import MatrixSystem, shear_pair


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdict lines after the run, outside capture."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "VERDICT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)

# Exact joint spectral radius of the 0.6 shear pair: the norm of either
# generator and the square root of rho(S2 S1) coincide at this value.
RHO_SHEAR = 0.970820393249937

GOLDEN = (1.0 + 5.0**0.5) / 2.0


@pytest.fixture
def diag_pair():
    """Scalar pair {diag(1/2), diag(2)}: the smallest chaotic example."""
    return MatrixSystem([np.diag([0.5, 0.5]), np.diag([2.0, 2.0])])


@pytest.fixture
def shear06():
    return shear_pair(0.6, 0.6)


@pytest.fixture
def shear06_normalized():
    return shear_pair(0.6, 0.6, 1.0 / RHO_SHEAR)


@pytest.fixture
def single_shear():
    return MatrixSystem([np.array([[1.0, 1.0], [0.0, 1.0]])])


def shear_block_system(alpha, beta, scale=1.0):
    """Two 4x4 generators [[F, F], [0, F]] over the shear pair's F.

    Products take the block shape [[P, n P], [0, P]] with P the shear-pair
    product of length n, so norms grow linearly in n while the P stay
    bounded above and below.
    """
    zero = np.zeros((2, 2))
    return MatrixSystem([np.block([[f, f], [zero, f]])
                         for f in shear_pair(alpha, beta, scale).generators])


def necklace_count(k, n):
    """Necklaces of length n over k symbols by the divisor sum
    (1/n) * sum over divisors e of n of phi(e) * k^(n/e)."""
    def phi(e):
        return sum(1 for i in range(1, e + 1) if math.gcd(i, e) == 1)
    return sum(phi(e) * k ** (n // e) for e in range(1, n + 1) if n % e == 0) // n


def lyndon_count(k, n):
    """Lyndon words (aperiodic necklaces) of length n over k symbols by
    Moebius inversion: (1/n) * sum over divisors e of n of mu(e) * k^(n/e)."""
    def mu(e):
        primes = [p for p in range(2, e + 1) if e % p == 0 and all(p % q for q in range(2, p))]
        return 0 if any(e % (p * p) == 0 for p in primes) else (-1) ** len(primes)
    return sum(mu(e) * k ** (n // e) for e in range(1, n + 1) if n % e == 0) // n


def random_invertible(rng, dim, spread=1.0):
    """A random matrix resampled until comfortably nonsingular."""
    while True:
        a = rng.standard_normal((dim, dim)) * spread
        if abs(np.linalg.det(a)) > 1e-6:
            return a
