"""Periodic stability, joint spectral radius bracketing, and growth curves.

Everything here is exhaustive search over finite words with sound pruning,
so results are deterministic and carry explicit budgets: exceeding a budget
yields a truncated result with a flag, never a silent partial answer.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .chaos import MatrixSystem
from .errors import (BudgetExceededError, InvalidInputError, require_fraction, require_int,
                     require_positive)
from .linalg import (LogScaledMatrix, op_norm, stacked_log_op_norms, stacked_log_radii, walk_rows,
                     word_chunks)
from .switching import Word

DEFAULT_STABILITY_TOL = 1e-9
DEFAULT_JSR_BUDGET = 10**6
DEFAULT_JSR_GAP = 0.01
DEFAULT_GROWTH_NMAX = 14
DEFAULT_ENUM_BUDGET = 1 << 22

GROWING = "growing"
BOUNDED_SO_FAR = "bounded-so-far"

CONTRACTING = "contracting"
EXPANDING_OR_NEUTRAL = "nonchaotic-expanding-or-neutral"

# Tail rise in log space that flips a growth probe to "growing".
_GROWTH_RISE = math.log(1.25)
# Mean per-step log drift beyond which a curve is flagged geometric.
_GEOMETRIC_DRIFT = 0.35
# growth_curve prunes a word only when its bound at every longer length falls
# short of the best by more than this, relative to the bound (at least 1): a
# product's computed log norm may pass its parent's bound by rounding.
_PRUNE_SLACK = 1e-12
# lyapunov_mc walks its samples in blocks of at most this many drawn symbols
# (one row when the horizon is longer), so memory does not grow with samples.
_MC_BLOCK_SYMBOLS = 2**16


def polynomial_growth_exponent(dim: int) -> int:
    """Largest possible polynomial degree of ||S_w|| growth when every
    periodic product of the system is contracting: floor(dim / 2) - 1."""
    return require_int(dim, 2, "dim must be an integer >= 2") // 2 - 1


# ---------------------------------------------------------------------------
# periodic stability


def _feasible_depth(level_size, depth: int, budget: int) -> int:
    """Deepest level j up to ``depth`` whose levels together, level_size(1)
    + ... + level_size(j) nodes, fit the budget; 0 when level 1 does not."""
    budget = require_int(budget, 0, "budget must be a nonnegative integer")
    total = 0
    for j in range(1, depth + 1):
        total += level_size(j)
        if total > budget:
            return j - 1
    return depth


def _contracts(normalized_radius: float, tol: float = DEFAULT_STABILITY_TOL) -> bool:
    """The one contraction rule for a periodic word w, read on its
    normalized radius rho(S_w)^(1/|w|): contracting below 1 - tol."""
    return normalized_radius < 1.0 - tol


@dataclass
class StabilityVerdict:
    """Outcome of scanning all cyclic words up to ``checked_up_to``.

    ``stable_up_to`` is the longest prefix of lengths 1..checked_up_to whose
    normalized radii all sit below 1 - tol.  ``worst_word`` attains
    ``worst_radius``, the largest normalized spectral radius seen; ties keep
    the earliest word in (length, lexicographic) order.
    """

    requested_len: int
    checked_up_to: int
    stable_up_to: int
    worst_word: Word | None
    worst_radius: float
    tol: float
    truncated: bool

    @property
    def stable(self) -> bool:
        return (
            not self.truncated
            and self.checked_up_to == self.requested_len
            and self.stable_up_to == self.requested_len
        )


def necklace_log_radii(system: MatrixSystem, max_len: int):
    """Yield (symbols, log rho(S_w) / |w|) for every Lyndon word w up to max_len.

    Lyndon words, the aperiodic necklaces, are the least words of their
    rotation classes; a necklace w^m shares w's value, so only w is yielded.
    They come in word-tree (Python tuple) order, each before its extensions.
    One ``word_chunks`` expansion forms a product for prenecklaces only, once
    each and equal to ``MatrixSystem.word_product`` bit for bit.  By
    Fredricksen-Kessler-Maiorana a prenecklace w of length n and period p
    (its longest Lyndon prefix) extends to prenecklaces by exactly the
    symbols at least w[n - p]; a child keeps p when it repeats that symbol
    and otherwise is Lyndon, of period n + 1.  A row's tag is n - p, 0 for
    Lyndon rows.  Words wait, sorted, until a chunk's first word passes them.
    """
    max_len = require_int(max_len, 1, "max_len must be a positive integer")
    symbols = np.arange(1, system.alphabet_size + 1)

    def fkm(words, refs):
        ref = words[np.arange(len(words)), refs][:, None]
        return np.where(symbols > ref, 0, np.where(symbols == ref, refs[:, None] + 1, -1))

    pending: list[tuple[tuple[int, ...], float]] = []
    for words, units, scales, refs in word_chunks(system.generators, max_len, fkm):
        ready = bisect.bisect_left(pending, (tuple(words[0].tolist()),))
        yield from pending[:ready]
        del pending[:ready]
        lyndon = refs == 0
        log_radii = stacked_log_radii(units[lyndon], scales[lyndon]) / words.shape[1]
        pending += zip(map(tuple, words[lyndon].tolist()), log_radii.tolist())
        pending.sort()
    yield from pending


def _necklace_count(k: int, n: int) -> int:
    """N(k, n) = (1/n) sum_{i<n} k^gcd(i, n), the number of necklaces of
    length n over k symbols; one for a single symbol."""
    return sum(k ** math.gcd(i, n) for i in range(n)) // n if k > 1 else 1


def periodic_stability(
    system: MatrixSystem,
    max_len: int,
    tol: float = DEFAULT_STABILITY_TOL,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> StabilityVerdict:
    """Decide contraction of every periodic product with period <= max_len.

    For each word w the decision quantity is rho(S_w)^(1/|w|); rotations
    and powers share it, so only Lyndon words are evaluated.  ``budget``
    counts necklaces: the sweep covers the most lengths 1..checked_up_to
    whose necklaces fit it, and is truncated when that stops short of max_len.
    """
    max_len = require_int(max_len, 1, "max_len must be a positive integer")
    tol = require_fraction(tol, "tol must lie in [0, 1)")
    k = system.alphabet_size
    checked = _feasible_depth(lambda n: _necklace_count(k, n), max_len, budget)
    worst, worst_radius = (), -math.inf
    stable_up_to = checked
    for symbols, log_radius in necklace_log_radii(system, checked) if checked else ():
        normalized = math.exp(log_radius)
        # Walk order is lexicographic within a length; ties keep the shorter word.
        if (normalized, -len(symbols)) > (worst_radius, -len(worst)):
            worst, worst_radius = symbols, normalized
        if not _contracts(normalized, tol):
            stable_up_to = min(stable_up_to, len(symbols) - 1)
    return StabilityVerdict(
        requested_len=max_len,
        checked_up_to=checked,
        stable_up_to=stable_up_to,
        worst_word=system.word(worst) if worst else None,
        worst_radius=worst_radius if worst else math.nan,
        tol=tol,
        truncated=checked < max_len,
    )


@dataclass(frozen=True)
class PeriodicVerdict:
    kind: str  # CONTRACTING or EXPANDING_OR_NEUTRAL
    radius: float
    word: Word


def classify_periodic(system: MatrixSystem, word: Word) -> PeriodicVerdict:
    """Classify the periodic law repeating ``word`` by its product's radius.

    Contracting means every orbit of the periodic law decays to zero: the
    normalized radius rho(S_w)^(1/|w|) sits below 1 - DEFAULT_STABILITY_TOL,
    the rule ``periodic_stability`` applies.  Otherwise orbits along the
    dominant eigendirection do not decay, which rules the law out as chaotic
    but leaves it expanding or neutral.  ``radius`` is rho(S_w) itself.
    """
    system._require_alphabet(word, "word")
    if len(word) == 0:
        raise InvalidInputError("the periodic word must be nonempty")
    log_radius = system.word_product(word).log_spectral_radius
    contracting = _contracts(math.exp(log_radius / len(word)))
    return PeriodicVerdict(kind=CONTRACTING if contracting else EXPANDING_OR_NEUTRAL,
                           radius=math.exp(log_radius), word=word)


# ---------------------------------------------------------------------------
# joint spectral radius


@dataclass
class JsrBracket:
    """Two-sided bracket lower <= jsr <= upper, in floating point.

    Not yet certified: ``upper`` is read from rounded norms and roots and is
    not rounded outward, so it may sit a few ulps below the exact bound.

    ``lower_witness`` is a primitive word (no proper power) whose normalized
    spectral radius equals ``lower``.  ``converged`` records whether the
    search closed the bracket to the requested relative gap before the node
    budget ran out.  ``depth_reached`` is the longest word whose radius was
    read.
    """

    lower: float
    upper: float
    lower_witness: Word
    nodes: int
    depth_reached: int
    converged: bool


def _is_proper_power(symbols: tuple[int, ...]) -> bool:
    """Whether ``symbols`` is some shorter word repeated."""
    n = len(symbols)
    return any(n % p == 0 and symbols == symbols[:p] * (n // p) for p in range(1, n // 2 + 1))


def jsr_bracket(
    system: MatrixSystem,
    budget: int = DEFAULT_JSR_BUDGET,
    target_gap: float = DEFAULT_JSR_GAP,
) -> JsrBracket:
    """Best-first branch-and-bound bracket of the joint spectral radius.

    Every word w carries m(w) = min over its prefixes p of ||S_p||^(1/|p|),
    an upper bound on the normalized radius of every extension of w.  Open
    words wait in one max-heap on m, so the word popped last has the largest
    open m.  The larger of that m and the target lower * (1 + target_gap) is
    the upper bound, and the search has converged once that m no longer
    exceeds the target (Gripenberg, LAA 1996).  A popped word's spectral
    radius is read once; while the budget lasts its children are formed and
    pushed.  The upper bound is clamped by the one-step norm bound, and the
    generators' own radii seed the lower bound.

    ``budget`` counts matrix products formed.  A word is stored as its
    parent's index and last symbol, so memory is linear in the products
    formed, about 0.3 KB each at d = 2.  The gap is relative, so the
    bracket commutes with scaling the generators.
    """
    budget = require_int(
        budget, system.alphabet_size, "budget must cover at least one tree level"
    )
    target_gap = require_positive(target_gap, "target_gap must be a positive finite number")
    gens = system.generators
    k = system.alphabet_size
    lower, witness = 0.0, ()
    nodes = depth = 0
    # Word i is word parents[i] followed by symbol last[i]; -1 is the empty
    # word.  Heap entries are (-m(w), w, |w|, S_w); products deep in the tree
    # overflow or underflow a plain float64, so they carry a log scale.
    parents: list[int] = []
    last: list[int] = []
    heap: list[tuple[float, int, int, LogScaledMatrix]] = []
    # The last word popped, the empty word at first.
    m, index, n, prod = math.inf, -1, 0, LogScaledMatrix.identity(system.dim)
    while m > lower * (1.0 + target_gap) and nodes + k <= budget:
        for sym, g in enumerate(gens, 1):
            child = prod.left_multiply(g)
            if n == 0:
                # Best first may stop before a word whose radius lies inside
                # the gap pops, so the generators' radii seed lower, read as
                # a popped word's radius is.
                rho = math.exp(child.log_spectral_radius)
                if rho > lower:
                    lower, witness = rho, (sym,)
            parents.append(index)
            last.append(sym)
            heapq.heappush(heap, (-min(m, math.exp(child.log_op_norm / (n + 1))),
                                  len(last) - 1, n + 1, child))
        nodes += k
        neg_m, index, n, prod = heapq.heappop(heap)
        m = -neg_m
        depth = max(depth, n)
        rho = math.exp(prod.log_spectral_radius / n)
        if rho >= lower:
            symbols, i = [], index
            while i >= 0:
                symbols.append(last[i])
                i = parents[i]
            symbols = tuple(reversed(symbols))
            # A proper power u^m has u's normalized radius, which was read
            # when u popped, so it can win only by rounding.
            if ((rho > lower or (n, symbols) < (len(witness), witness))
                    and not _is_proper_power(symbols)):
                lower, witness = rho, symbols
    # Every open word's m is at most the last popped word's.
    upper = max(lower, min(max(lower * (1.0 + target_gap), m), max(op_norm(g) for g in gens)))
    return JsrBracket(
        lower=lower,
        upper=upper,
        lower_witness=Word(witness, alphabet_size=k),
        nodes=nodes,
        depth_reached=depth,
        converged=upper <= lower * (1.0 + target_gap) * (1.0 + 1e-15),
    )


# ---------------------------------------------------------------------------
# growth curves


@dataclass(eq=False)
class GrowthCurve:
    """Exact per-length maxima of ||S_w|| with the words attaining them.

    ``log_max_norms[n - 1]`` is the largest computed log ||S_w|| over every
    word of length n, as the products ``word_tree`` forms would read, and
    ``argmax_words[n - 1]`` is the lexicographically first word whose computed
    log norm equals it.  Words whose exact norms tie are told apart by
    rounding, so any of them may be reported.
    """

    log_max_norms: np.ndarray
    argmax_words: tuple[Word, ...]
    n_max: int
    truncated: bool

    def fitted_exponent(self, even_only: bool = False) -> float:
        """Least-squares slope of log max-norm against log n over the upper
        half of the curve, n in [ceil(n_max / 2), n_max].  For polynomially
        growing curves this estimates the polynomial degree.

        ``even_only`` restricts the fit to even n, which removes the
        parity wobble of curves whose extremal words alternate symbols.
        """
        start = (self.n_max + 1) // 2
        ns = np.arange(start, self.n_max + 1, dtype=float)
        ys = self.log_max_norms[start - 1:]
        if even_only:
            keep = ns % 2 == 0
            ns, ys = ns[keep], ys[keep]
        if len(ns) < 2:
            raise InvalidInputError("curve too short to fit an exponent")
        x = np.log(ns)
        slope = np.polyfit(x, ys, 1)[0]
        return float(slope)

    @property
    def geometric_flag(self) -> str | None:
        """Set when the mean per-step log drift is large enough that a
        polynomial fit would be meaningless."""
        if self.n_max < 2:
            return None
        drift = (self.log_max_norms[-1] - self.log_max_norms[0]) / (self.n_max - 1)
        if drift > _GEOMETRIC_DRIFT:
            return "geometric-growth"
        if drift < -_GEOMETRIC_DRIFT:
            return "geometric-decay"
        return None


def growth_curve(
    system: MatrixSystem,
    n_max: int = DEFAULT_GROWTH_NMAX,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> GrowthCurve:
    """Compute max over |w| = n of ||S_w|| exactly for n = 1..n_max.

    The word tree is expanded by ``word_chunks``, after one greedy dive seeds
    the best at every length.  A word of length j with log norm v is pruned
    only when its bound v + (r - j) log max ||S_i|| falls short of the best
    at every longer length r by more than ``_PRUNE_SLACK`` times
    max(1, |bound|), so rounding never prunes a word whose computed norm
    reaches the best.  If the full tree (the pruning guarantee) exceeds
    ``budget`` products, n_max is reduced upfront and the curve flagged
    truncated.
    """
    n_max = require_int(n_max, 1, "n_max must be a positive integer")
    k = system.alphabet_size
    n_eff = _feasible_depth(lambda j: k**j, n_max, budget)
    if n_eff == 0:
        raise BudgetExceededError("budget does not cover depth 1", spent=k, budget=budget)
    gens = system.generators
    log_one_step = math.log(max(op_norm(g) for g in gens))
    best = np.full(n_eff + 1, -math.inf)
    argmax: list[tuple[int, ...]] = [()] * (n_eff + 1)
    # The dive forms the products the chunks do, so each seed is a word's own
    # computed norm; unseeded, the first chunks would prune nothing.
    prod = LogScaledMatrix.identity(system.dim)
    for j in range(1, n_eff + 1):
        kids = [prod.left_multiply(g) for g in gens]
        norms = [kid.log_op_norm for kid in kids]
        sym = norms.index(max(norms))
        prod, best[j], argmax[j] = kids[sym], norms[sym], argmax[j - 1] + (sym + 1,)
    reachable = None
    for words, units, scales, _ in word_chunks(
            gens, n_eff, lambda words, tags: np.where(reachable, 0, -1)[:, None]):
        j = words.shape[1]
        v = stacked_log_op_norms(units, scales)
        # Rows are lexicographic, so np.argmax is the chunk's first maximizer;
        # ties between chunks keep the lexicographically first word.
        i = int(np.argmax(v))
        word = tuple(words[i].tolist())
        if v[i] > best[j] or (v[i] == best[j] and word < argmax[j]):
            best[j], argmax[j] = v[i], word
        bounds = v[:, None] + log_one_step * np.arange(1, n_eff - j + 1)
        reachable = (bounds + _PRUNE_SLACK * np.maximum(1.0, np.abs(bounds))
                     >= best[j + 1:]).any(axis=1)
    words = tuple(Word(argmax[j], alphabet_size=k) for j in range(1, n_eff + 1))
    return GrowthCurve(
        log_max_norms=best[1:],
        argmax_words=words,
        n_max=n_eff,
        truncated=n_eff < n_max,
    )


def growth_verdict(curve: GrowthCurve) -> str:
    """Classify a curve as growing or bounded-so-far from its tail rise."""
    mid = (curve.n_max + 1) // 2
    rise = curve.log_max_norms[-1] - curve.log_max_norms[mid - 1]
    return GROWING if rise > _GROWTH_RISE else BOUNDED_SO_FAR


# ---------------------------------------------------------------------------
# the shear pair


def shear_pair(alpha: float, beta: float, scale: float = 1.0) -> MatrixSystem:
    """The two-generator shear pair: alpha times an upper unitriangular
    shear and beta times the lower one, both multiplied by ``scale``."""
    for name, value in (("alpha", alpha), ("beta", beta), ("scale", scale)):
        if not (math.isfinite(value) and value != 0.0):
            raise InvalidInputError(f"{name} must be finite and nonzero")
    f1 = scale * alpha * np.array([[1.0, 1.0], [0.0, 1.0]])
    f2 = scale * beta * np.array([[1.0, 0.0], [1.0, 1.0]])
    return MatrixSystem([f1, f2])


# ---------------------------------------------------------------------------
# irreducibility and invariant subspaces


@dataclass(eq=False)
class IrreducibilityReport:
    """Dimension of the algebra generated by the system inside d x d
    matrices; the system is irreducible exactly when that dimension is the
    full d squared."""

    verdict: str
    algebra_dim: int
    dim: int
    basis: tuple[np.ndarray, ...]

    @property
    def irreducible(self) -> bool:
        return self.verdict == "irreducible"


_SPAN_TOL = 1e-10


def irreducibility(system: MatrixSystem) -> IrreducibilityReport:
    """Close {I} under left multiplication by the generators.

    Matrices are flattened and orthonormalized; a product enters the basis
    only if its residual after projection exceeds a fixed tolerance relative
    to its size.  Closure needs at most d squared insertions, so the loop
    always terminates.  A generator's scale does not change the algebra, so
    each one is first brought into LogScaledMatrix's band by its rule; the
    norms below then neither overflow nor underflow at entries like 1e200 or
    1e-200.
    """
    gens = [LogScaledMatrix.from_matrix(g).unit for g in system.generators]
    d = system.dim
    basis_vecs: list[np.ndarray] = []
    basis_mats: list[np.ndarray] = []

    def try_add(mat: np.ndarray) -> bool:
        v = mat.reshape(-1).astype(float)
        scale = np.linalg.norm(v)
        if scale == 0.0:
            return False
        for _ in range(2):  # re-project once for numerical safety
            for b in basis_vecs:
                v = v - (v @ b) * b
        residual = np.linalg.norm(v)
        if residual <= _SPAN_TOL * scale:
            return False
        basis_vecs.append(v / residual)
        basis_mats.append(mat / np.linalg.norm(mat))
        return True

    queue = [np.eye(d)]
    try_add(queue[0])
    while queue:
        current = queue.pop(0)
        for g in gens:
            # Each product is Frobenius-normalized at once: this closes an
            # algebra under multiplication, it carries no running product.
            product = g @ current
            product = product / np.linalg.norm(product)
            if try_add(product):
                queue.append(product)
    algebra_dim = len(basis_vecs)
    verdict = "irreducible" if algebra_dim == d * d else "reducible"
    return IrreducibilityReport(
        verdict=verdict,
        algebra_dim=algebra_dim,
        dim=d,
        basis=tuple(m.copy() for m in basis_mats),
    )


# ---------------------------------------------------------------------------
# unboundedness probe


@dataclass(eq=False)
class RestrictionProbe:
    """Growth verdict for the system restricted to one invariant subspace.

    ``axis`` is the 1-based coordinate whose algebra orbit spans the
    subspace and ``basis`` is an orthonormal d x r matrix for it.
    """

    axis: int
    subspace_dim: int
    basis: np.ndarray
    curve: GrowthCurve
    verdict: str


@dataclass(eq=False)
class ProbeReport:
    """Unboundedness evidence on the full space and every proper invariant
    subspace found from coordinate-axis algebra orbits."""

    full_curve: GrowthCurve
    full_verdict: str
    restrictions: tuple[RestrictionProbe, ...]
    dim: int

    @property
    def unbounded_everywhere(self) -> bool:
        if self.full_verdict != GROWING:
            return False
        return all(r.verdict == GROWING for r in self.restrictions)


def product_unbounded_probe(
    system: MatrixSystem,
    n_max: int = DEFAULT_GROWTH_NMAX,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> ProbeReport:
    """Check whether products can grow without bound, and where.

    The full-space growth curve gives the headline verdict.  Each coordinate
    axis generates an invariant subspace (the span of its algebra orbit);
    restricting the generators there and re-running the probe exposes
    directions on which the products stay bounded even when the full system
    grows, which is exactly the reducible failure mode.
    """
    report = irreducibility(system)
    full = growth_curve(system, n_max=n_max, budget=budget)
    restrictions: list[RestrictionProbe] = []
    seen: set[bytes] = set()
    d = system.dim
    if not report.irreducible:
        orbit_stack = np.stack(report.basis)  # (adim, d, d)
        for axis in range(1, d + 1):
            vectors = orbit_stack[:, :, axis - 1].T  # d x adim
            u, s, _ = np.linalg.svd(vectors, full_matrices=False)
            rank = int(np.sum(s > _SPAN_TOL * s[0])) if s[0] > 0.0 else 0
            if rank == 0 or rank == d:
                continue
            q = u[:, :rank]
            key = np.round(q @ q.T, 8).tobytes()
            if key in seen:
                continue
            seen.add(key)
            restricted = MatrixSystem([q.T @ g @ q for g in system.generators])
            curve = growth_curve(restricted, n_max=n_max, budget=budget)
            restrictions.append(
                RestrictionProbe(
                    axis=axis,
                    subspace_dim=rank,
                    basis=q,
                    curve=curve,
                    verdict=growth_verdict(curve),
                )
            )
    return ProbeReport(
        full_curve=full,
        full_verdict=growth_verdict(full),
        restrictions=tuple(restrictions),
        dim=d,
    )


# ---------------------------------------------------------------------------
# Monte Carlo Lyapunov exponent


@dataclass
class LyapunovEstimate:
    """Sample mean and standard error of (1/horizon) log ||S_w|| over words
    w drawn i.i.d. uniformly over symbols."""

    value: float
    stderr: float
    samples: int
    horizon: int
    seed: int
    measure: str = "iid-uniform"


def lyapunov_mc(
    system: MatrixSystem,
    samples: int = 200,
    horizon: int = 400,
    seed: int = 0,
) -> LyapunovEstimate:
    """Monte Carlo estimate of the top Lyapunov exponent.

    Each sample draws ``horizon`` symbols independently and uniformly and
    contributes log ||product|| / horizon.  The samples' products are carried
    together on one stack by ``walk_rows``, with the same log-scale rule per
    row as a single walk, in blocks of at most ``_MC_BLOCK_SYMBOLS`` draws.
    Deterministic for a fixed seed.
    """
    samples = require_int(samples, 1, "samples must be a positive integer")
    horizon = require_int(horizon, 1, "horizon must be a positive integer")
    seed = require_int(seed, 0, "seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    rates = np.empty(samples)
    block = np.empty((min(samples, max(1, _MC_BLOCK_SYMBOLS // horizon)), horizon), dtype=np.int64)
    for lo in range(0, samples, len(block)):
        rows = block[:samples - lo]
        for row in rows:
            row[:] = rng.integers(1, system.alphabet_size + 1, size=horizon)
        rates[lo:lo + len(rows)] = [prod.log_op_norm / horizon
                                    for prod in walk_rows(system.generators, rows)]
    value = float(np.mean(rates))
    stderr = float(np.std(rates, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return LyapunovEstimate(
        value=value,
        stderr=stderr,
        samples=samples,
        horizon=horizon,
        seed=seed,
    )

