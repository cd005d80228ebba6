"""Independent checks of chaoslab's command-line outputs.

Nothing here imports chaoslab.  Each check recomputes what a report claims
from the input matrices alone:

* certificate crossings are tested in exact integer arithmetic (every float
  is a dyadic rational, so running products are integer matrices over a
  power of two, and a norm inequality is a positive-definiteness test);
* stability radii, JSR witnesses, growth maxima and witness-search answers
  are recomputed with plain numpy over every word;
* orbits and decay norms are replayed step by step;
* Lyapunov estimates are replayed from the same numpy random draws.

A check raises ``Mismatch`` with a one-line reason when a claim fails.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

LN10 = math.log(10.0)


class Mismatch(Exception):
    """An output disagrees with its independent recomputation."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def close(a: float, b: float, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# words and laws


def parse_word(text: str | None) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split("-")) if text else ()


def word_stacks(gens: np.ndarray, max_len: int):
    """Yield (n, products) for n = 1..max_len.

    ``products[i]`` is the product of the i-th word of length n in
    lexicographic order, with the first symbol applied first (the product
    of w1..wn is G_wn ... G_w1).
    """
    k, d = gens.shape[0], gens.shape[1]
    prods = gens.copy()
    yield 1, prods
    for n in range(2, max_len + 1):
        # Appending symbol s to word i gives index i * k + s.
        prods = np.matmul(gens[None, :, :, :], prods[:, None, :, :]).reshape(-1, d, d)
        yield n, prods


def word_at(index: int, k: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        index, r = divmod(index, k)
        digits.append(r + 1)
    return tuple(reversed(digits))


def necklace_count(k: int, n: int) -> int:
    """Number of cyclic classes of words of length n over k symbols."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
            total += phi * k ** (n // d)
    return total // n


def law_symbols(spec: dict, horizon: int) -> list[int]:
    """Expand a constructed law's description to its first ``horizon`` symbols:
    the prefix, then i^l_k j^L_k per schedule entry, the last entry repeating."""
    expect(spec["type"] == "constructed", f"law type {spec['type']!r} has no oracle expansion")
    out = list(spec["prefix"])
    schedule = spec["schedule"]
    idx = 0
    while len(out) < horizon:
        l, big = schedule[min(idx, len(schedule) - 1)]
        out.extend(spec["i"] * l)
        out.extend(spec["j"] * big)
        idx += 1
    return out[:horizon]


def product(gens: np.ndarray, word) -> tuple[np.ndarray, float]:
    """Product along ``word`` as (unit, log_scale), renormalized every step."""
    p = np.eye(gens.shape[1])
    log_scale = 0.0
    for s in word:
        p = gens[s - 1] @ p
        f = float(np.abs(p).max())
        p = p / f
        log_scale += math.log(f)
    return p, log_scale


def normalized_radius(gens: np.ndarray, word) -> float:
    unit, log_scale = product(gens, word)
    rho = float(np.abs(np.linalg.eigvals(unit)).max())
    return math.exp((log_scale + math.log(rho)) / len(word))


def radii_by_length(gens: np.ndarray, max_len: int) -> list[np.ndarray]:
    """Normalized spectral radius of every word, per length, lexicographic."""
    return [
        np.abs(np.linalg.eigvals(prods)).max(axis=1) ** (1.0 / n)
        for n, prods in word_stacks(gens, max_len)
    ]


# ---------------------------------------------------------------------------
# exact certificate check


def _dyadic(mat: np.ndarray) -> tuple[list[list[int]], int]:
    """Integer matrix M and exponent e with mat == M / 2**e exactly."""
    fr = [[Fraction(float(x)) for x in row] for row in mat]
    e = max(f.denominator.bit_length() - 1 for row in fr for f in row)
    return [[int(f * (1 << e)) for f in row] for row in fr], e


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def positive_definite(m: list[list[int]]) -> bool:
    """Sylvester's criterion on an integer symmetric matrix (Bareiss)."""
    a = [row[:] for row in m]
    n = len(a)
    prev = 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return True


def check_certificate(gens: np.ndarray, cert: dict, law: dict | None) -> None:
    """Every crossing of a chaos certificate, in exact arithmetic.

    At the k-th contracting crossing t the running product P must satisfy
    ||P|| < 1/k, that is (1/k)^2 I - P^T P positive definite; at the k-th
    expanding crossing, co-norm(P) > k, that is P^T P - k^2 I positive
    definite.  Crossing times must match the schedule.
    """
    prefix, i_word, j_word = cert["prefix"], cert["i"], cert["j"]
    schedule, crossings = cert["schedule"], cert["crossings"]
    expect(len(schedule) == len(crossings), "schedule and crossings differ in length")
    if law is not None:
        expect(
            law == {"type": "constructed", "alphabet": gens.shape[0], "prefix": prefix,
                    "i": i_word, "j": j_word, "schedule": schedule},
            "law does not match the certificate",
        )
    position = len(prefix)
    checks: dict[int, list[tuple[str, int]]] = {}
    for idx, ((l, big), (k, t_below, t_above)) in enumerate(zip(schedule, crossings)):
        expect(k == idx + 1 and l >= 1 and big >= 1, f"malformed schedule entry {idx + 1}")
        position += l * len(i_word)
        expect(t_below == position, f"k={k}: contracting crossing at {t_below}, schedule gives {position}")
        position += big * len(j_word)
        expect(t_above == position, f"k={k}: expanding crossing at {t_above}, schedule gives {position}")
        checks.setdefault(t_below, []).append(("below", k))
        checks.setdefault(t_above, []).append(("above", k))
    symbols = list(prefix)
    for l, big in schedule:
        symbols.extend(i_word * l)
        symbols.extend(j_word * big)
    ints, exps = zip(*(_dyadic(g) for g in gens))
    d = gens.shape[1]
    p = [[int(r == c) for c in range(d)] for r in range(d)]
    e = 0
    for t, s in enumerate(symbols, start=1):
        p = _matmul(ints[s - 1], p)
        e += exps[s - 1]
        for side, k in checks.get(t, ()):
            gram = _matmul([list(col) for col in zip(*p)], p)
            scale = 1 << (2 * e)
            if side == "below":
                m = [[(scale if r == c else 0) - k * k * gram[r][c] for c in range(d)]
                     for r in range(d)]
                expect(positive_definite(m), f"k={k}: op-norm < 1/{k} fails at n={t}")
            else:
                m = [[gram[r][c] - (k * k * scale if r == c else 0) for c in range(d)]
                     for r in range(d)]
                expect(positive_definite(m), f"k={k}: co-norm > {k} fails at n={t}")


# ---------------------------------------------------------------------------
# per-command checks


def _check_search_side(gens, reported: str | None, value: float | None, side: str,
                       max_len: int, tol: float, slack: float = 1e-9) -> None:
    """The reported word must be the first, by length and then lexicographically,
    whose op-norm (side "below") or co-norm (side "above") clears 1 -/+ tol.
    Words within ``slack`` of the threshold are too close to call either way."""
    k = gens.shape[0]
    if side == "below":
        values = [np.linalg.norm(p, 2, axis=(1, 2)) for _, p in word_stacks(gens, max_len)]
        clear = [v < 1.0 - tol - slack for v in values]
        name = "contracting"
    else:
        values = [np.linalg.svd(p, compute_uv=False)[:, -1] for _, p in word_stacks(gens, max_len)]
        clear = [v > 1.0 + tol + slack for v in values]
        name = "expanding"
    word = parse_word(reported)
    n = len(word) if word else max_len + 1
    idx = sum((s - 1) * k ** (n - 1 - pos) for pos, s in enumerate(word))
    for length in range(1, min(n + 1, max_len + 1)):
        hits = np.nonzero(clear[length - 1][:idx] if length == n else clear[length - 1])[0]
        if len(hits):
            raise Mismatch(f"{name} word {reported} is not the first: "
                           f"{'-'.join(map(str, word_at(int(hits[0]), k, length)))} clears the threshold")
    if not word:
        return
    mine = float(values[n - 1][idx])
    threshold_ok = mine < 1.0 - tol + slack if side == "below" else mine > 1.0 + tol - slack
    expect(threshold_ok, f"{name} word {reported} has value {mine}, not past the threshold")
    if value is not None:
        expect(close(value, mine), f"{name} value {value} differs from {mine}")


def check_analyze(gens, params: dict, results: dict) -> None:
    word_len, tol = params["word_len"], params["tol"]
    verdict = results["verdict"]
    if verdict == "chaotic-law-constructed":
        _check_search_side(gens, results["contracting_word"], results["contracting_norm"],
                           "below", len(parse_word(results["contracting_word"])), tol)
        _check_search_side(gens, results["expanding_word"], results["expanding_conorm"],
                           "above", len(parse_word(results["expanding_word"])), tol)
        cert = results["certificate"]
        expect(cert["i"] == list(parse_word(results["contracting_word"]))
               and cert["j"] == list(parse_word(results["expanding_word"])),
               "certificate words differ from the witness")
        check_certificate(gens, cert, results["law"])
        return
    expect(verdict == f"no-witness-up-to-length-{word_len}", f"unexpected verdict {verdict}")
    _check_search_side(gens, results["contracting_word"], None, "below", word_len, tol)
    _check_search_side(gens, results["expanding_word"], None, "above", word_len, tol)
    k = gens.shape[0]
    full_scan = sum((k ** (n + 1) - k) // (k - 1) if k > 1 else n for n in range(1, word_len + 1))
    expect(results["products_formed"] == full_scan,
           f"products_formed {results['products_formed']}, a full scan forms {full_scan}")


def check_construct(gens, params: dict, results: dict) -> None:
    expect(results["verdict"] == "constructed", f"unexpected verdict {results['verdict']}")
    cert = results["certificate"]
    expect(cert["prefix"] == list(parse_word(params["prefix"])), "prefix not honoured")
    try:
        check_certificate(gens, cert, results["law"])
    except Mismatch as exc:
        raise Mismatch(f"{exc} (recheck_passed={results['recheck_passed']})") from None
    expect(results["recheck_passed"] is True, "certificate holds but recheck_passed is false")


def check_simulate(gens, law: dict, x0, horizon: int, results: dict, csv_path: str) -> None:
    symbols = law_symbols(law, horizon)
    d = gens.shape[1]
    gl = gens.tolist()
    u = [float(v) for v in x0]
    mag = math.sqrt(sum(v * v for v in u))
    u = [v / mag for v in u]
    log_mag = math.log(mag)
    lo = hi = None
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expect(header == ["n", "symbol", "log10_magnitude"] + [f"u{i}" for i in range(1, d + 1)],
               f"unexpected CSV header {header}")
        n = 0
        for n, (s, row) in enumerate(zip(symbols, reader), start=1):
            g = gl[s - 1]
            u = [sum(g[r][c] * u[c] for c in range(d)) for r in range(d)]
            step = math.sqrt(sum(v * v for v in u))
            u = [v / step for v in u]
            log_mag += math.log(step)
            l10 = log_mag / LN10
            expect(int(row[0]) == n and int(row[1]) == s, f"CSV row {n}: time or symbol differs")
            expect(abs(float(row[2]) - l10) <= 1e-8 * max(1.0, abs(l10)),
                   f"CSV row {n}: log10 magnitude {row[2]}, expected {l10}")
            expect(all(abs(float(a) - b) <= 1e-8 for a, b in zip(row[3:], u)),
                   f"CSV row {n}: unit direction differs")
            lo = l10 if lo is None else min(lo, l10)
            hi = l10 if hi is None else max(hi, l10)
        expect(n == horizon and next(reader, None) is None, "CSV row count differs from horizon")
    summary = results["summary"]
    for key, want in (("final_log10_magnitude", l10), ("min_log10_magnitude", lo),
                      ("max_log10_magnitude", hi)):
        expect(abs(summary[key] - want) <= 1e-8 * max(1.0, abs(want)), f"{key} differs")


def _run_thresholds(seq: list[int], alphabet: int, max_run: int):
    horizon = len(seq)
    half = horizon // 2
    latest = {s: {} for s in range(1, alphabet + 1)}
    start = 0
    while start < horizon:
        end = start
        while end < horizon and seq[end] == seq[start]:
            end += 1
        a, b = start + 1, end  # 1-based inclusive run
        for length in range(1, max_run + 1):
            first = b - length + 1
            if first >= max(a, half + 1):
                table = latest[seq[start]]
                table[length] = max(table.get(length, -1), first - 1)
        start = end
    for s in range(1, alphabet + 1):
        if all(length in latest[s] for length in range(1, max_run + 1)):
            return s, [[length, latest[s][length]] for length in range(1, max_run + 1)]
    return None, []


def check_runs(gens, law: dict, params: dict, results: dict) -> None:
    horizon, max_run = params["horizon"], params["max_run"]
    seq = law_symbols(law, horizon)
    symbol, thresholds = _run_thresholds(seq, gens.shape[0], max_run)
    expect(results["run_symbol"] == symbol, f"run symbol {results['run_symbol']}, expected {symbol}")
    expect(results["run_thresholds"] == thresholds, "run thresholds differ")
    want = "consistent-with-run-nonchaotic" if symbol is not None else "inconsistent-up-to-horizon"
    expect(results["run_verdict"] == want, f"run verdict {results['run_verdict']}, expected {want}")
    # decay: log op-norm of the running product at every step
    d = gens.shape[1]
    units = np.empty((horizon, d, d))
    scales = np.empty(horizon)
    p = np.eye(d)
    log_scale = 0.0
    for t, s in enumerate(seq):
        p = gens[s - 1] @ p
        f = float(np.abs(p).max())
        p = p / f
        log_scale += math.log(f)
        units[t] = p
        scales[t] = log_scale
    logs = scales + np.log(np.linalg.norm(units, 2, axis=(1, 2)))
    quarter = horizon // 4
    head_min, tail_max = float(logs[:quarter].min()), float(logs[horizon - quarter:].max())
    expect(close(results["head_min_log_norm"], head_min, 1e-9, 1e-9), "head_min_log_norm differs")
    expect(close(results["tail_max_log_norm"], tail_max, 1e-9, 1e-9), "tail_max_log_norm differs")
    gap = tail_max - (head_min - math.log(2.0))
    if abs(gap) > 1e-9:
        want = "decaying" if gap < 0 else "not-decaying"
        expect(results["decay_verdict"] == want, f"decay verdict {results['decay_verdict']}, expected {want}")
    worst = max(float(r.max()) for r in radii_by_length(gens, 4))
    if abs(worst - 1.0) > 1e-9:
        expect(("warning" in results) == (worst > 1.0), "stability warning presence differs")


def check_stability(gens, params: dict, results: dict) -> None:
    max_len, tol = params["max_len"], params["tol"]
    expect(not results["truncated"] and results["checked_up_to"] == max_len, "sweep truncated")
    radii = radii_by_length(gens, max_len)
    worst = max(float(r.max()) for r in radii)
    expect(close(results["worst_radius"], worst), f"worst radius {results['worst_radius']}, expected {worst}")
    word = parse_word(results["worst_word"])
    expect(close(normalized_radius(gens, word), worst), f"worst word {results['worst_word']} does not attain it")
    unstable = [n for n, r in enumerate(radii, start=1) if float(r.max()) >= 1.0 - tol]
    want = (unstable[0] - 1) if unstable else max_len
    expect(results["stable_up_to"] == want, f"stable_up_to {results['stable_up_to']}, expected {want}")
    expect(results["stable"] == (want == max_len), "stable flag differs")


def check_jsr(gens, params: dict, results: dict, exit_code: int) -> None:
    lower, upper, gap = results["lower"], results["upper"], params["gap"]
    word = parse_word(results["lower_witness"])
    expect(close(normalized_radius(gens, word), lower), "lower bound differs from its witness radius")
    one_step = float(np.linalg.norm(gens, 2, axis=(1, 2)).max())
    expect(lower <= upper <= one_step * (1 + 1e-12), "bracket out of order")
    depth = {1: 12, 2: 10, 3: 6}.get(gens.shape[0], 4)
    probe = max(float(r.max()) for r in radii_by_length(gens, depth))
    expect(probe <= upper * (1 + 1e-12), f"a word of length <= {depth} has radius {probe} above upper")
    converged = results["converged"]
    if converged:
        expect(upper <= lower * (1 + gap) * (1 + 1e-12), "converged but gap not closed")
    expect(exit_code == (0 if converged else 3), f"exit code {exit_code} for converged={converged}")
    expect(results["products_formed"] <= params["nodes"], "node budget overrun")


def check_growth(gens, params: dict, results: dict, csv_path: str | None) -> None:
    n_max = params["nmax"]
    expect(not results["truncated"] and results["n_max"] == n_max, "growth curve truncated")
    k = gens.shape[0]
    for n, prods in word_stacks(gens, n_max):
        norms = np.linalg.norm(prods, 2, axis=(1, 2))
        best = math.log10(float(norms.max()))
        got = results["log10_max_norms"][n - 1]
        expect(abs(got - best) <= 1e-9 * max(1.0, abs(best)), f"n={n}: log10 max norm {got}, expected {best}")
        word = parse_word(results["argmax_words"][n - 1])
        idx = sum((s - 1) * k ** (n - 1 - pos) for pos, s in enumerate(word))
        expect(len(word) == n and close(float(norms[idx]), float(norms.max())),
               f"n={n}: argmax word does not attain the maximum")
    if csv_path is None:
        return
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["n", "log10_max_norm", "argmax_word"], "unexpected growth CSV header")
    expect(len(rows) == n_max + 1, "growth CSV row count differs")
    for n, row in enumerate(rows[1:], start=1):
        expect(int(row[0]) == n and row[2] == results["argmax_words"][n - 1]
               and close(float(row[1]), results["log10_max_norms"][n - 1]),
               f"growth CSV row {n} differs from the report")


def check_lyapunov(gens, params: dict, results: dict) -> None:
    samples, horizon, seed = params["samples"], params["horizon"], params["seed"]
    k, d = gens.shape[0], gens.shape[1]
    rng = np.random.default_rng(seed)
    draws = np.stack([rng.integers(1, k + 1, size=horizon) for _ in range(samples)])
    p = np.broadcast_to(np.eye(d), (samples, d, d)).copy()
    logs = np.zeros(samples)
    for t in range(horizon):
        p = gens[draws[:, t] - 1] @ p
        f = np.abs(p).max(axis=(1, 2))
        p /= f[:, None, None]
        logs += np.log(f)
    rates = (logs + np.log(np.linalg.norm(p, 2, axis=(1, 2)))) / horizon
    value = float(np.mean(rates))
    stderr = float(np.std(rates, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    expect(close(results["value"], value, 1e-9, 1e-12), f"value {results['value']}, expected {value}")
    expect(close(results["stderr"], stderr, 1e-6, 1e-12), f"stderr {results['stderr']}, expected {stderr}")
