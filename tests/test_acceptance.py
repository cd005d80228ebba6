"""End-to-end acceptance checks, one test per numbered criterion.

Each test records one PASS or FAIL line; conftest replays them in a
terminal summary section after the run.  Timing limits are part of the
criteria and are asserted, not just reported.
"""

import functools
import math
import time

import numpy as np
from conftest import RHO_SHEAR, random_invertible, shear_block_system

from chaoslab import (
    BOUNDED_SO_FAR,
    CONSISTENT,
    CONTRACTING,
    DECAYING,
    EXPANDING_OR_NEUTRAL,
    GROWING,
    BlockLaw,
    ExplicitLaw,
    LogScaledMatrix,
    MatrixSystem,
    PeriodicLaw,
    Word,
    classify_periodic,
    co_norm,
    construct_chaotic_law,
    decay_check,
    doubling_law,
    find_witness,
    growth_curve,
    growth_verdict,
    irreducibility,
    jsr_bracket,
    law_metric,
    lyapunov_mc,
    op_norm,
    periodic_stability,
    polynomial_growth_exponent,
    product_unbounded_probe,
    recheck_certificate,
    run_evidence,
    shear_pair,
    simulate,
    spectral_radius,
    verify_witness,
    walk,
)

MARGIN = 1e-9

VERDICT_LINES = []


def criterion(n, summary, time_limit=None):
    """Record one PASS/FAIL line per criterion and enforce its runtime cap."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                if time_limit is not None:
                    assert elapsed < time_limit, (
                        f"runtime {elapsed:.2f}s exceeds the {time_limit}s cap"
                    )
            except BaseException:
                line = f"FAIL criterion {n}: {summary}"
                VERDICT_LINES.append(line)
                print(line)
                raise
            line = f"PASS criterion {n}: {summary} [{elapsed:.2f}s]"
            VERDICT_LINES.append(line)
            print(line)

        return run

    return wrap


def diag_system():
    return MatrixSystem([np.diag([0.5, 0.5]), np.diag([2.0, 2.0])])


def walk_products(system, law, horizon):
    """Running products P(n) for n = 0..horizon, overflow safe."""
    out = [LogScaledMatrix.identity(system.dim)]
    for n in range(1, horizon + 1):
        out.append(out[-1].left_multiply(system.generator(law.symbol(n))))
    return out


@criterion(1, "witness search and greedy construction on the diagonal pair",
           time_limit=1.0)
def test_criterion_1_constructive_pipeline():
    system = diag_system()
    search = find_witness(system, max_len=4)
    pair = search.witness
    assert pair is not None
    assert pair.contracting.symbols == (1,)
    assert pair.expanding.symbols == (2,)
    assert abs(pair.contracting_norm - 0.5) <= 1e-12
    assert abs(pair.expanding_conorm - 2.0) <= 1e-12

    cert, law = construct_chaotic_law(system, pair, Word((), 2), k_max=5)
    assert cert.k_max == 5
    assert cert.schedule == ((1, 2), (3, 4), (4, 4), (5, 6), (6, 6))
    assert recheck_certificate(system, cert)

    products = walk_products(system, law, cert.final_time)
    for k, t_below, t_above in cert.crossings:
        # block-end inequalities, re-verified with the log-space margin
        assert products[t_below].log_op_norm <= -math.log(k) - MARGIN
        assert products[t_above].log_co_norm >= math.log(k) + MARGIN
        # greedy minimality: one fewer application fails the same bound
        short_i = products[t_below - len(cert.i_word)]
        assert short_i.log_op_norm > -math.log(k) - MARGIN
        short_j = products[t_above - len(cert.j_word)]
        assert short_j.log_co_norm < math.log(k) + MARGIN


@criterion(2, "constructed laws land within 2^-N of 100 random targets",
           time_limit=10.0)
def test_criterion_2_density():
    system = diag_system()
    pair = verify_witness(system, Word((1,), 2), Word((2,), 2))
    rng = np.random.default_rng(20260819)
    targets = []
    for _ in range(100):
        period = int(rng.integers(1, 17))
        symbols = tuple(int(s) for s in rng.integers(1, 3, size=period))
        targets.append(PeriodicLaw(Word(symbols, 2)))
    for target in targets:
        for n_prefix in (4, 8, 16):
            want = Word(tuple(target.sequence(n_prefix)), 2)
            _, law = construct_chaotic_law(system, pair, want, k_max=2)
            assert tuple(law.sequence(n_prefix)) == want.symbols
            assert law_metric(law, target) < 2.0 ** (-n_prefix)


@criterion(3, "doubling law magnitudes, scan crossings, and run evidence",
           time_limit=1.0)
def test_criterion_3_doubling_law():
    system = diag_system()
    law = doubling_law()
    traj = simulate(system, law, np.array([1.0, 0.0]), horizon=126)
    log2_mags = traj.log_magnitudes / math.log(2.0)
    block_ends = (2, 6, 14, 30, 62, 126)
    expected = (-2.0, 2.0, -6.0, 10.0, -22.0, 42.0)
    for n, value in zip(block_ends, expected):
        assert abs(log2_mags[n - 1] - value) <= 1e-6

    prods = list(walk(system.generators, law.sequence(126)))
    for k in range(1, 5):
        assert any(p.log_op_norm <= -math.log(k) - MARGIN for p in prods)
        assert any(p.log_co_norm >= math.log(k) + MARGIN for p in prods)

    evidence = run_evidence(law, horizon=126, max_run=20)
    assert evidence.verdict == CONSISTENT


@criterion(4, "periodic words classified and orbits match their radii")
def test_criterion_4_periodic_classification():
    system = diag_system()
    down = classify_periodic(system, Word((1,), 2))
    up = classify_periodic(system, Word((2,), 2))
    assert down.kind == CONTRACTING and abs(down.radius - 0.5) <= 1e-12
    assert up.kind == EXPANDING_OR_NEUTRAL and abs(up.radius - 2.0) <= 1e-12

    x0 = np.array([1.0, 0.0])
    horizon = 1000
    for word, rho in ((Word((1,), 2), 0.5), (Word((2,), 2), 2.0)):
        traj = simulate(system, PeriodicLaw(word), x0, horizon)
        slope = (traj.log_magnitudes[-1] - traj.log_magnitudes[0]) / (horizon - 1)
        assert abs(slope - math.log(rho)) <= 0.1 * abs(math.log(rho))
    decayed = simulate(system, PeriodicLaw(Word((1,), 2)), x0, horizon)
    assert decayed.log_magnitudes[-1] < -600.0  # magnitude heading to zero
    grown = simulate(system, PeriodicLaw(Word((2,), 2)), x0, horizon)
    assert float(grown.log_magnitudes.min()) > 0.0  # liminf stays positive


@criterion(5, "0.6 shear pair: stability sweep, jsr bracket, no distal scans",
           time_limit=60.0)
def test_criterion_5_stable_shear_pair():
    system = shear_pair(0.6, 0.6)
    verdict = periodic_stability(system, max_len=10)
    assert verdict.stable
    assert abs(verdict.worst_radius - 0.970820) <= 1e-5
    assert verdict.worst_word is not None
    assert verdict.worst_word.symbols == (1, 2)

    bracket = jsr_bracket(system, budget=10 ** 6)
    assert abs(bracket.lower - 0.970820) <= 1e-6
    assert bracket.upper <= 0.98
    assert bracket.nodes <= 10 ** 6

    rng = np.random.default_rng(5)
    for _ in range(50):
        symbols = tuple(int(s) for s in rng.integers(1, 3, size=1000))
        law = ExplicitLaw(Word(symbols, 2))
        # the co-norm never clears 1
        assert all(p.log_co_norm < MARGIN for p in walk(system.generators, law.sequence(1000)))


@criterion(6, "growth exponents match floor(d/2 - 1) and the block identity",
           time_limit=120.0)
def test_criterion_6_growth_bounds():
    scale = 1.0 / RHO_SHEAR
    pair = shear_pair(0.6, 0.6, scale=scale)
    curve2 = growth_curve(pair, n_max=14)
    assert growth_verdict(curve2) == BOUNDED_SO_FAR
    assert abs(curve2.fitted_exponent()) <= 0.15
    assert polynomial_growth_exponent(2) == 0

    block = shear_block_system(0.6, 0.6, scale=scale)
    curve4 = growth_curve(block, n_max=14)
    assert abs(curve4.fitted_exponent(even_only=True) - 1.0) <= 0.2
    assert polynomial_growth_exponent(4) == 1

    rng = np.random.default_rng(6)
    for _ in range(50):
        length = int(rng.integers(1, 21))
        symbols = tuple(int(s) for s in rng.integers(1, 3, size=length))
        word = Word(symbols, 2)
        top = pair.word_product(word).dense()
        full = block.word_product(word).dense()
        target = length * top
        err = np.linalg.norm(full[:2, 2:] - target)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(target))


@criterion(7, "forty run-structured laws all decay on the stable pair")
def test_criterion_7_decay_on_stable_pair():
    system = shear_pair(0.6, 0.6)
    rng = np.random.default_rng(7)
    laws = []
    for _ in range(20):  # eventually constant
        plen = int(rng.integers(0, 51))
        prefix = Word(tuple(int(s) for s in rng.integers(1, 3, size=plen)), 2)
        laws.append(ExplicitLaw(prefix, fallback=int(rng.integers(1, 3))))
    for _ in range(20):  # long constant runs covering the whole horizon
        blocks, total = [], 0
        while total < 2200:
            run = int(rng.integers(60, 400))
            blocks.append((int(rng.integers(1, 3)), run))
            total += run
        laws.append(BlockLaw(blocks, 2))
    for law in laws:
        report = decay_check(system, law, horizon=2000)
        assert report.verdict == DECAYING


@criterion(8, "algebra dimensions and the single-shear restriction probe")
def test_criterion_8_irreducibility():
    diag = irreducibility(diag_system())
    assert not diag.irreducible and diag.algebra_dim == 1

    shear = irreducibility(shear_pair(0.6, 0.6))
    assert shear.irreducible and shear.algebra_dim == 4

    block = irreducibility(shear_block_system(0.6, 0.6))
    assert not block.irreducible and block.algebra_dim == 8

    single = MatrixSystem([np.array([[1.0, 1.0], [0.0, 1.0]])])
    probe = product_unbounded_probe(single)
    assert probe.full_verdict == GROWING
    axis_hits = [r for r in probe.restrictions
                 if r.subspace_dim == 1 and r.verdict == BOUNDED_SO_FAR]
    assert axis_hits, "no bounded invariant axis found"
    assert not probe.unbounded_everywhere


@criterion(9, "norm kernel properties on 10^4 matrices, eigs, lyapunov")
def test_criterion_9_numerical_kernel():
    rng = np.random.default_rng(1234)
    slack = 1e-12
    checked = 0
    while checked < 10 ** 4:
        dim = int(rng.integers(1, 6))
        a = random_invertible(rng, dim)
        b = random_invertible(rng, dim)
        na, nb = op_norm(a), op_norm(b)
        ca, cb = co_norm(a), co_norm(b)
        assert op_norm(a @ b) <= na * nb * (1 + slack) + slack
        assert co_norm(a @ b) >= ca * cb * (1 - slack) - slack
        for mat, norm, cnm in ((a, na, ca), (b, nb, cb)):
            dual = 1.0 / op_norm(np.linalg.inv(mat))
            assert abs(cnm - dual) <= 1e-8 * max(1.0, norm)
            assert spectral_radius(mat) <= norm * (1 + slack) + slack
        checked += 2

    for _ in range(500):
        p, q, r = rng.uniform(-2.0, 2.0, size=3)
        sym = np.array([[p, q], [q, r]])
        mid, half = (p + r) / 2.0, math.hypot((p - r) / 2.0, q)
        got = spectral_radius(sym)
        assert abs(got - max(abs(mid - half), abs(mid + half))) <= 1e-10

    estimate = lyapunov_mc(diag_system(), samples=200)
    assert abs(estimate.value) <= 3.0 * estimate.stderr
