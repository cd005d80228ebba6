"""Periodic stability, joint spectral radius bracketing, and growth curves.

Everything here is exhaustive search over finite words with sound pruning,
so results are deterministic and carry explicit budgets: exceeding a budget
yields a truncated result with a flag, never a silent partial answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import MatrixSystem
from .errors import BudgetExceededError, InvalidInputError, require_int
from .linalg import LogScaledMatrix, op_norm, walk
from .switching import Word, enumerate_necklaces

DEFAULT_STABILITY_TOL = 1e-9
DEFAULT_JSR_BUDGET = 10**6
DEFAULT_JSR_GAP = 0.01
DEFAULT_GROWTH_NMAX = 14
DEFAULT_ENUM_BUDGET = 1 << 22

GROWING = "growing"
BOUNDED_SO_FAR = "bounded-so-far"

# Tail rise in log space that flips a growth probe to "growing".
_GROWTH_RISE = math.log(1.25)
# Mean per-step log drift beyond which a curve is flagged geometric.
_GEOMETRIC_DRIFT = 0.35


def polynomial_growth_exponent(dim: int) -> int:
    """Largest possible polynomial degree of ||S_w|| growth when every
    periodic product of the system is contracting: floor(dim / 2) - 1."""
    return require_int(dim, 2, "dim must be an integer >= 2") // 2 - 1


# ---------------------------------------------------------------------------
# periodic stability


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


def periodic_stability(
    system: MatrixSystem,
    max_len: int,
    tol: float = DEFAULT_STABILITY_TOL,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> StabilityVerdict:
    """Decide contraction of every periodic product with period <= max_len.

    For each word w the decision quantity is rho(S_w)^(1/|w|); rotations
    share it, so only necklace representatives are evaluated.  ``budget``
    caps the number of representatives examined; running out produces a
    truncated verdict covering the lengths that completed.
    """
    max_len = require_int(max_len, 1, "max_len must be a positive integer")
    if not (0.0 <= tol < 1.0):
        raise InvalidInputError("tol must lie in [0, 1)")
    worst_word: Word | None = None
    worst_radius = -math.inf
    first_unstable: int | None = None
    checked = 0
    spent = 0
    truncated = False
    for length in range(1, max_len + 1):
        length_done = True
        for word in enumerate_necklaces(system.alphabet_size, length):
            if spent >= budget:
                length_done = False
                truncated = True
                break
            spent += 1
            normalized = math.exp(system.word_product(word).log_spectral_radius / length)
            if normalized > worst_radius:
                worst_radius = normalized
                worst_word = word
            if normalized >= 1.0 - tol and first_unstable is None:
                first_unstable = length
        if not length_done:
            break
        checked = length
    if first_unstable is not None and first_unstable <= checked:
        stable_up_to = first_unstable - 1
    else:
        stable_up_to = checked
    return StabilityVerdict(
        requested_len=max_len,
        checked_up_to=checked,
        stable_up_to=stable_up_to,
        worst_word=worst_word,
        worst_radius=worst_radius if worst_word is not None else math.nan,
        tol=tol,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# joint spectral radius


@dataclass
class JsrBracket:
    """Certified two-sided bracket lower <= jsr <= upper.

    ``lower_witness`` is a word whose normalized spectral radius equals
    ``lower``.  ``converged`` records whether the search closed the bracket
    to the requested relative gap before the node budget ran out.
    """

    lower: float
    upper: float
    lower_witness: Word | None
    nodes: int
    depth_reached: int
    converged: bool
    target_gap: float
    budget: int

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def jsr_bracket(
    system: MatrixSystem,
    budget: int = DEFAULT_JSR_BUDGET,
    target_gap: float = DEFAULT_JSR_GAP,
) -> JsrBracket:
    """Branch-and-bound bracket of the joint spectral radius.

    Explores the word tree keeping, for each word w, the quantity
    m(w) = min over prefixes p of ||S_p||^(1/|p|), an upper bound on the
    normalized radius of every extension of w.  A branch is pruned once
    m(w) <= lower * (1 + target_gap), because no extension can then raise
    the lower bound past the target.  The returned upper bound is the
    largest of lower * (1 + target_gap) and the m-values still open when
    the budget expired, clamped by the one-step norm bound.

    ``budget`` counts matrix products formed.  The gap is relative, so the
    bracket commutes with scaling the generators.
    """
    budget = require_int(
        budget, system.alphabet_size, "budget must cover at least one tree level"
    )
    if not (target_gap > 0.0) or not math.isfinite(target_gap):
        raise InvalidInputError("target_gap must be a positive finite number")
    gens = system.generators
    k = system.alphabet_size
    one_step = max(op_norm(g) for g in gens)
    lower = 0.0
    witness: Word | None = None
    nodes = 0
    depth = 0
    # Stack entries: (word symbols, log-scaled product, m-value).  Products
    # deep in the tree overflow or underflow a plain float64 representation,
    # so they are carried with a separate log scale.  Children are pushed in
    # ascending m order so the most promising branch pops first.
    stack: list[tuple[tuple[int, ...], LogScaledMatrix, float]] = []

    def push_children(symbols: tuple[int, ...], prod: LogScaledMatrix, m: float):
        nonlocal nodes
        children = []
        for sym in range(1, k + 1):
            child = prod.left_multiply(gens[sym - 1])
            nodes += 1
            child_m = min(m, math.exp(child.log_op_norm / (len(symbols) + 1)))
            children.append((symbols + (sym,), child, child_m))
        children.sort(key=lambda item: (item[2], -item[0][-1]))
        stack.extend(children)

    push_children((), LogScaledMatrix.identity(system.dim), math.inf)
    exhausted = False
    while stack:
        symbols, prod, m = stack.pop()
        depth = max(depth, len(symbols))
        rho = math.exp(prod.log_spectral_radius / len(symbols))
        if rho > lower or (
            rho == lower
            and witness is not None
            and (len(symbols), symbols) < (len(witness), witness.symbols)
        ):
            lower = rho
            witness = Word(symbols, alphabet_size=k)
        if m <= lower * (1.0 + target_gap):
            continue
        if nodes + k > budget:
            stack.append((symbols, prod, m))
            exhausted = True
            break
        push_children(symbols, prod, m)
    if exhausted:
        frontier = max(entry[2] for entry in stack)
        raw_upper = max(lower * (1.0 + target_gap), frontier)
    else:
        raw_upper = lower * (1.0 + target_gap)
    upper = max(lower, min(raw_upper, one_step))
    converged = upper <= lower * (1.0 + target_gap) * (1.0 + 1e-15)
    return JsrBracket(
        lower=lower,
        upper=upper,
        lower_witness=witness,
        nodes=nodes,
        depth_reached=depth,
        converged=converged,
        target_gap=target_gap,
        budget=budget,
    )


# ---------------------------------------------------------------------------
# growth curves


def _feasible_depth(k: int, depth: int, budget: int) -> int:
    """Deepest level up to ``depth`` whose whole word tree, k + k^2 + ... + k^j
    products, fits the budget; raises when not even level 1 does."""
    total = 0
    for j in range(1, depth + 1):
        total += k**j
        if total > budget:
            if j == 1:
                raise BudgetExceededError(
                    "budget does not cover depth 1", spent=k, budget=budget
                )
            return j - 1
    return depth


@dataclass
class GrowthCurve:
    """Exact per-length maxima of ||S_w|| with the words attaining them.

    ``log_max_norms[n - 1]`` is log max over |w| = n of ||S_w|| and
    ``argmax_words[n - 1]`` is the lexicographically first maximizer.
    """

    log_max_norms: np.ndarray
    argmax_words: tuple[Word, ...]
    n_max: int
    truncated: bool

    def max_norms(self) -> np.ndarray:
        return np.exp(self.log_max_norms)

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

    Depth-first search over the word tree.  A node of depth j with norm v is
    pruned only when v times the best possible remaining factor cannot beat
    the current maximum at any deeper level, which never changes the exact
    answer.  If the full tree (the pruning guarantee) exceeds ``budget``
    products, n_max is reduced upfront and the curve flagged truncated.
    """
    n_max = require_int(n_max, 1, "n_max must be a positive integer")
    k = system.alphabet_size
    n_eff = _feasible_depth(k, n_max, budget)
    gens = system.generators
    one_step = max(op_norm(g) for g in gens)
    best = [-math.inf] * (n_eff + 1)
    argmax: list[tuple[int, ...] | None] = [None] * (n_eff + 1)
    # Iterative DFS in lexicographic order so first strict improvements give
    # lexicographically smallest argmax words.
    stack: list[tuple[tuple[int, ...], np.ndarray]] = [
        ((sym,), gens[sym - 1].copy()) for sym in range(k, 0, -1)
    ]
    while stack:
        symbols, prod = stack.pop()
        j = len(symbols)
        v = op_norm(prod)
        if v > best[j]:
            best[j] = v
            argmax[j] = symbols
        if j == n_eff:
            continue
        reachable = False
        bound = v
        for r in range(j + 1, n_eff + 1):
            bound *= one_step
            if bound > best[r]:
                reachable = True
                break
        if not reachable:
            continue
        for sym in range(k, 0, -1):
            stack.append((symbols + (sym,), gens[sym - 1] @ prod))
    words = tuple(Word(argmax[j], alphabet_size=k) for j in range(1, n_eff + 1))
    return GrowthCurve(
        log_max_norms=np.log(np.array(best[1:])),
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
# block shear construction


def shear_pair(alpha: float, beta: float, scale: float = 1.0) -> MatrixSystem:
    """The two-generator shear pair: alpha times an upper unitriangular
    shear and beta times the lower one, both multiplied by ``scale``."""
    for name, value in (("alpha", alpha), ("beta", beta), ("scale", scale)):
        if not (math.isfinite(value) and value != 0.0):
            raise InvalidInputError(f"{name} must be finite and nonzero")
    f1 = scale * alpha * np.array([[1.0, 1.0], [0.0, 1.0]])
    f2 = scale * beta * np.array([[1.0, 0.0], [1.0, 1.0]])
    return MatrixSystem([f1, f2])


def build_shear_block_system(
    alpha: float, beta: float, scale: float = 1.0
) -> MatrixSystem:
    """Two 4x4 generators [[F, F], [0, F]] built over the shear pair.

    Products inherit the block shape [[P, n P], [0, P]] where P is the
    corresponding shear-pair product of length n, so norms grow linearly
    in n whenever the P stay bounded above and below.
    """
    base = shear_pair(alpha, beta, scale).generators
    blocks = []
    for f in base:
        top = np.hstack([f, f])
        bottom = np.hstack([np.zeros((2, 2)), f])
        blocks.append(np.vstack([top, bottom]))
    return MatrixSystem(blocks)


# ---------------------------------------------------------------------------
# extremal norm estimation


@dataclass
class NormTable:
    """Max of ||S_w v|| over all words up to the horizon, per probe vector.

    ``stabilization`` is the largest relative increase any probe saw going
    from horizon - 1 to horizon; a small value suggests the maxima have
    stopped moving.
    """

    probes: tuple[np.ndarray, ...]
    values: tuple[float, ...]
    stabilization: float
    horizon: int
    truncated: bool


def extremal_norm_estimate(
    system: MatrixSystem,
    probes,
    horizon: int = 12,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> NormTable:
    """Evaluate v -> max over |w| <= horizon of ||S_w v|| at each probe.

    The empty word is included, so every value is at least ||v||.  Most
    informative on systems normalized so the joint spectral radius is close
    to 1; then the values approximate an extremal norm at the probes.
    """
    horizon = require_int(horizon, 1, "horizon must be a positive integer")
    probe_list = [np.asarray(p, dtype=float).reshape(-1) for p in probes]
    if not probe_list:
        raise InvalidInputError("at least one probe vector is required")
    for p in probe_list:
        if p.shape != (system.dim,):
            raise InvalidInputError("probe dimension does not match the system")
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("probe vectors must be finite")
    k = system.alphabet_size
    h_eff = _feasible_depth(k, horizon, budget)
    pmat = np.column_stack(probe_list)  # dim x n_probes
    n_probes = pmat.shape[1]
    best = np.zeros((h_eff + 1, n_probes))
    best[0] = np.linalg.norm(pmat, axis=0)
    gens = system.generators
    stack: list[tuple[int, np.ndarray]] = [
        (1, gens[sym - 1] @ pmat) for sym in range(k, 0, -1)
    ]
    while stack:
        depth, images = stack.pop()
        np.maximum(best[depth], np.linalg.norm(images, axis=0), out=best[depth])
        if depth == h_eff:
            continue
        for sym in range(k, 0, -1):
            stack.append((depth + 1, gens[sym - 1] @ images))
    cumulative = np.maximum.accumulate(best, axis=0)
    final = cumulative[h_eff]
    previous = cumulative[h_eff - 1] if h_eff >= 1 else final
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(previous > 0.0, (final - previous) / previous, 0.0)
    return NormTable(
        probes=tuple(p.copy() for p in probe_list),
        values=tuple(float(v) for v in final),
        stabilization=float(np.max(rel)),
        horizon=h_eff,
        truncated=h_eff < horizon,
    )


# ---------------------------------------------------------------------------
# irreducibility and invariant subspaces


@dataclass
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
    always terminates.
    """
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
        for g in system.generators:
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


@dataclass
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


@dataclass
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

    Each sample draws ``horizon`` symbols independently and uniformly,
    accumulates the product in log scale, and contributes
    log ||product|| / horizon.  Deterministic for a fixed seed.
    """
    samples = require_int(samples, 1, "samples must be a positive integer")
    horizon = require_int(horizon, 1, "horizon must be a positive integer")
    rng = np.random.default_rng(seed)
    rates = np.empty(samples)
    for i in range(samples):
        draws = rng.integers(1, system.alphabet_size + 1, size=horizon)
        for prod in walk(system.generators, draws):
            pass
        rates[i] = prod.log_op_norm / horizon
    value = float(np.mean(rates))
    stderr = float(np.std(rates, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return LyapunovEstimate(
        value=value,
        stderr=stderr,
        samples=samples,
        horizon=horizon,
        seed=int(seed),
    )


__all__ = [
    "StabilityVerdict",
    "periodic_stability",
    "JsrBracket",
    "jsr_bracket",
    "GrowthCurve",
    "growth_curve",
    "growth_verdict",
    "shear_pair",
    "build_shear_block_system",
    "NormTable",
    "extremal_norm_estimate",
    "IrreducibilityReport",
    "irreducibility",
    "RestrictionProbe",
    "ProbeReport",
    "product_unbounded_probe",
    "LyapunovEstimate",
    "lyapunov_mc",
    "polynomial_growth_exponent",
    "GROWING",
    "BOUNDED_SO_FAR",
    "DEFAULT_JSR_BUDGET",
    "DEFAULT_JSR_GAP",
    "DEFAULT_GROWTH_NMAX",
]
